let default_eps = 1e-9

let approx_eq ?(eps = default_eps) a b = Float.abs (a -. b) <= eps

let rel_eq ?(rel = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= rel *. scale

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
