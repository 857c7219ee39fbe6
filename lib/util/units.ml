let gbps g = g *. 1e9

let usec u = u *. 1e-6

let pp_time ppf t =
  let a = Float.abs t in
  if a >= 1. then Format.fprintf ppf "%.3g s" t
  else if a >= 1e-3 then Format.fprintf ppf "%.3g ms" (t *. 1e3)
  else if a >= 1e-6 then Format.fprintf ppf "%.3g us" (t *. 1e6)
  else Format.fprintf ppf "%.3g ns" (t *. 1e9)

let pp_bytes ppf b =
  let a = Float.abs b in
  if a >= 1e9 then Format.fprintf ppf "%.3g GB" (b /. 1e9)
  else if a >= 1e6 then Format.fprintf ppf "%.3g MB" (b /. 1e6)
  else if a >= 1e3 then Format.fprintf ppf "%.3g KB" (b /. 1e3)
  else Format.fprintf ppf "%.3g B" b
