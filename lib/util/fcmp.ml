let within_fraction ~frac ~actual ~target =
  if target = 0. then Float.abs actual <= frac *. 1e-6
  else Float.abs (actual -. target) <= frac *. Float.abs target

let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if Float.is_nan x then x
  else if Float.is_nan y then y
  else if Float.equal x 0. then x +. y
  else x

let[@inline] fmin (x : float) (y : float) =
  if y < x then y
  else if x < y then x
  else if Float.is_nan x then x
  else if Float.is_nan y then y
  else if Float.equal x 0. then -.(-.x -. y)
  else x

let clamp ~lo ~hi x = Float.min hi (Float.max lo x)

let is_finite x = Float.is_finite x
