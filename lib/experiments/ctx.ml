type t = {
  scale : float;
  seed : int;
}

let make ~scale ~seed =
  if scale <= 0. || not (Float.is_finite scale) then
    invalid_arg (Printf.sprintf "Ctx.make: scale %g not positive" scale);
  { scale; seed }

let scaled ~floor t n =
  Stdlib.max floor (int_of_float (Float.ceil (float_of_int n *. t.scale)))

let rng_seed t ~default = t.seed + default
