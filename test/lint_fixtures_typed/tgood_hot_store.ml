(* Typed hot-alloc good cases for float stores: a flat store into an
   all-float record, an int store into a mixed record, and [:=] on a
   float ref bound in the hot body itself (a register variable). Zero
   findings expected. *)

type clock = { mutable now : float; mutable last_dt : float }

type counters = { mutable ticks : int; scale : float }

let[@nf.hot] advance c (dt : float) =
  c.now <- c.now +. dt;
  c.last_dt <- dt

let[@nf.hot] tick k = k.ticks <- k.ticks + 1

let[@nf.hot] scaled_sum k (a : float array) =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (k.scale *. Array.unsafe_get a i)
  done;
  !acc
