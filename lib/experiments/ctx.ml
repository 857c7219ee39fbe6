type t = {
  scale : float;
  seed : int;
  attempt : int;
}

let make ?(scale = 1.0) ?(seed = 0) ?(attempt = 0) () =
  if scale <= 0. || not (Float.is_finite scale) then
    invalid_arg (Printf.sprintf "Ctx.make: scale %g not positive" scale);
  { scale; seed; attempt }

let default = make ()

let quick = make ~scale:0.2 ()

let is_quick t = t.scale < 1.

let scaled ?(floor = 1) t n =
  Stdlib.max floor (int_of_float (Float.ceil (float_of_int n *. t.scale)))

(* A large odd stride keeps retry seeds far from every task's seed+index
   neighborhood. *)
let rng_seed t ~default = t.seed + default + (t.attempt * 1_000_003)

let for_task t ~index ~attempt = { t with seed = t.seed + index; attempt }
