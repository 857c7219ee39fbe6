module Fcmp = Nf_util.Fcmp

(* A utility is its shape. The built-in analytic utilities carry their
   parameters, so hot solver loops evaluate U' / U'^-1 with inline
   unboxed float arithmetic ([deriv] / [rate_from_price] below): an
   indirect closure call from native code boxes both the float argument
   and the float result, which would be the dominant allocation in the
   sparse xWI step. Only custom utilities pay for closures. *)
type t =
  | Log of { weight : float }
  | Power of { weight : float; alpha : float; walpha : float; inv_alpha : float }
  | Opaque of { deriv : float -> float; inv_deriv : float -> float }

let make ~deriv ~inv_deriv = Opaque { deriv; inv_deriv }

(* Floor applied to rates before evaluating [U']: [deriv] diverges at 0
   and measured rates can transiently be 0. *)
let min_rate = 1e-12

let alpha_fair ?(weight = 1.) ~alpha () =
  if not (alpha > 0.) then invalid_arg "Utility.alpha_fair: alpha must be positive";
  if not (weight > 0.) then invalid_arg "Utility.alpha_fair: weight must be positive";
  if Float.abs (alpha -. 1.) < 1e-12 then Log { weight }
  else Power { weight; alpha; walpha = weight ** alpha; inv_alpha = -1. /. alpha }

let proportional_fair ?(weight = 1.) () = alpha_fair ~weight ~alpha:1. ()

let[@inline] fct_weight ~size ~eps = size ** (-1. /. eps)

let fct ~size ~eps =
  if not (size > 0.) then invalid_arg "Utility.fct: size must be positive";
  if not (eps > 0. && eps < 1.) then invalid_arg "Utility.fct: eps must be in (0, 1)";
  alpha_fair ~weight:(fct_weight ~size ~eps) ~alpha:eps ()

let deadline ~deadline ~eps =
  if not (deadline > 0.) then invalid_arg "Utility.deadline: deadline must be positive";
  if not (eps > 0. && eps < 1.) then
    invalid_arg "Utility.deadline: eps must be in (0, 1)";
  alpha_fair ~weight:(deadline ** (-1. /. eps)) ~alpha:eps ()

let fct_remaining ~remaining ~eps = fct ~size:(Float.max remaining 1.) ~eps

let min_price = 1e-300

(* Guard against overflow to infinity for steep inverses (e.g. alpha =
   0.125 raises the price to the power -8): relative ordering between
   flows is all that matters for weights, so a huge finite cap is safe. *)
let max_rate_cap = 1e300

(* The evaluators floor their inputs with [Fcmp]'s comparison-only max,
   which equals [Float.max] on every input (NaN and signed zeros
   included) without its sign-bit C calls. The [alpha_fair_*]
   evaluators are the one copy of the shapes' formulas: [deriv] and
   [rate_from_price] apply them to a utility's shape, and a caller whose
   weight moves per event (SRPT's remaining size) to its own
   parameters. *)
let[@inline] alpha_fair_deriv ~log_shape ~weight ~walpha ~alpha x =
  let x = Fcmp.fmax x min_rate in
  if log_shape then weight /. x else walpha *. (x ** -.alpha)

(* Two comparisons, NaN failing both: the same result as
   [if Float.is_finite rate then Fcmp.fmin rate max_rate_cap else
   max_rate_cap], in less code at each inlined call site. *)
let[@inline] cap_rate rate =
  if rate <= max_rate_cap && rate > neg_infinity then rate else max_rate_cap

let[@inline] alpha_fair_rate ~log_shape ~weight ~inv_alpha p =
  let p = Fcmp.fmax p min_price in
  cap_rate (if log_shape then weight /. p else weight *. (p ** inv_alpha))

let[@inline] deriv u x =
  match u with
  | Log { weight } ->
    alpha_fair_deriv ~log_shape:true ~weight ~walpha:weight ~alpha:1. x
  | Power { weight; walpha; alpha; _ } ->
    alpha_fair_deriv ~log_shape:false ~weight ~walpha ~alpha x
  | Opaque { deriv; _ } -> deriv x

let[@inline] rate_from_price u p =
  match u with
  | Log { weight } ->
    alpha_fair_rate ~log_shape:true ~weight ~inv_alpha:(-1.) p
  | Power { weight; inv_alpha; _ } ->
    alpha_fair_rate ~log_shape:false ~weight ~inv_alpha p
  | Opaque { inv_deriv; _ } -> cap_rate (inv_deriv (Fcmp.fmax p min_price))
