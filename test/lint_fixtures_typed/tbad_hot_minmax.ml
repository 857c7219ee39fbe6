(* Typed hot-alloc bad cases for the stdlib float min/max. Expected
   findings: Float.max applied in [clamp], Float.min applied in [lowest],
   Float.max passed as a value in [peak]. *)

let[@nf.hot] clamp (x : float) = Float.max 0. x

let[@nf.hot] lowest (a : float array) =
  let acc = ref infinity in
  for i = 0 to Array.length a - 1 do
    acc := Float.min !acc (Array.unsafe_get a i)
  done;
  !acc

let[@nf.hot] peak (a : float array) = Array.fold_left Float.max 0. a
