type t = {
  scale : float;
  seed : int;
  attempt : int;
}

let make ~scale ~seed =
  if scale <= 0. || not (Float.is_finite scale) then
    invalid_arg (Printf.sprintf "Ctx.make: scale %g not positive" scale);
  { scale; seed; attempt = 0 }

let scaled ~floor t n =
  Stdlib.max floor (int_of_float (Float.ceil (float_of_int n *. t.scale)))

(* A large odd stride keeps retry seeds far from every task's seed+index
   neighborhood. *)
let rng_seed t ~default = t.seed + default + (t.attempt * 1_000_003)

let for_task t ~index ~attempt = { t with seed = t.seed + index; attempt }
