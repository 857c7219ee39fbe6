(* Typed hot-alloc good cases for min/max: a hot body using its unit's
   comparison-only max, and the stdlib Float.max outside any hot body.
   Zero findings expected. *)

let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if Float.is_nan x then x
  else if Float.is_nan y then y
  else if Float.equal x 0. then x +. y
  else x

let[@nf.hot] clamp (x : float) = fmax 0. x

let cold_clamp (x : float) = Float.max 0. x
