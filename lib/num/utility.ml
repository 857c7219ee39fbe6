module Fcmp = Nf_util.Fcmp

(* The [shape] field mirrors the closure fields for the built-in
   analytic utilities so hot solver loops can evaluate U' / U'^-1 with
   inline unboxed float arithmetic ([deriv_fast] / [rate_from_price_fast]
   below). An indirect closure call from native code boxes both the float
   argument and the float result, which is the dominant allocation in the
   sparse xWI step; the shape dispatch keeps everything in registers.
   [Power.inv_alpha] precomputes [-1 /. alpha] with the exact expression
   the closure uses so the fast path is bit-identical to the closure. *)
type shape =
  | Log of { weight : float }
  | Power of { weight : float; alpha : float; walpha : float; inv_alpha : float }
  | Opaque

type t = {
  name : string;
  value : float -> float;
  deriv : float -> float;
  inv_deriv : float -> float;
  shape : shape;
}

let make ~name ~value ~deriv ~inv_deriv =
  { name; value; deriv; inv_deriv; shape = Opaque }

(* Floor applied to rates before evaluating [U']: [deriv] diverges at 0
   and measured rates can transiently be 0. *)
let min_rate = 1e-12

let alpha_fair ?(weight = 1.) ~alpha () =
  if not (alpha > 0.) then invalid_arg "Utility.alpha_fair: alpha must be positive";
  if not (weight > 0.) then invalid_arg "Utility.alpha_fair: weight must be positive";
  let name = Printf.sprintf "alpha_fair(alpha=%g,w=%g)" alpha weight in
  if Float.abs (alpha -. 1.) < 1e-12 then
    {
      name;
      value = (fun x -> weight *. log (Float.max x min_rate));
      deriv = (fun x -> weight /. Float.max x min_rate);
      inv_deriv = (fun p -> weight /. p);
      shape = Log { weight };
    }
  else begin
    let walpha = weight ** alpha in
    {
      name;
      value =
        (fun x -> walpha *. ((Float.max x min_rate) ** (1. -. alpha)) /. (1. -. alpha));
      deriv = (fun x -> walpha *. ((Float.max x min_rate) ** -.alpha));
      inv_deriv = (fun p -> weight *. (p ** (-1. /. alpha)));
      shape = Power { weight; alpha; walpha; inv_alpha = -1. /. alpha };
    }
  end

let proportional_fair ?(weight = 1.) () = alpha_fair ~weight ~alpha:1. ()

let[@inline] fct_weight ~size ~eps = size ** (-1. /. eps)

let fct ~size ~eps =
  if not (size > 0.) then invalid_arg "Utility.fct: size must be positive";
  if not (eps > 0. && eps < 1.) then invalid_arg "Utility.fct: eps must be in (0, 1)";
  let u = alpha_fair ~weight:(fct_weight ~size ~eps) ~alpha:eps () in
  { u with name = Printf.sprintf "fct(size=%g,eps=%g)" size eps }

let deadline ~deadline ~eps =
  if not (deadline > 0.) then invalid_arg "Utility.deadline: deadline must be positive";
  if not (eps > 0. && eps < 1.) then
    invalid_arg "Utility.deadline: eps must be in (0, 1)";
  let u = alpha_fair ~weight:(deadline ** (-1. /. eps)) ~alpha:eps () in
  { u with name = Printf.sprintf "deadline(d=%g,eps=%g)" deadline eps }

let fct_remaining ~remaining ~eps =
  let u = fct ~size:(Float.max remaining 1.) ~eps in
  { u with name = Printf.sprintf "fct_remaining(r=%g,eps=%g)" remaining eps }

let min_price = 1e-300

let max_rate_cap = 1e300

let rate_from_price u ?max_rate p =
  let rate = u.inv_deriv (Float.max p min_price) in
  (* Guard against overflow to infinity for steep inverses (e.g. alpha =
     0.125 raises the price to the power -8): relative ordering between
     flows is all that matters for weights, so a huge finite cap is safe. *)
  let rate = if Float.is_finite rate then Float.min rate max_rate_cap else max_rate_cap in
  match max_rate with None -> rate | Some m -> Float.min rate m

(* The fast paths floor their inputs with [Fcmp]'s comparison-only max,
   which equals [Float.max] on every input (NaN and signed zeros
   included) without its sign-bit C calls. The [alpha_fair_*]
   evaluators are the one copy of the shapes' formulas: the [_fast]
   paths apply them to a utility's shape, and a caller whose weight moves
   per event (SRPT's remaining size) to its own parameters. *)
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

let[@inline] deriv_fast u x =
  match u.shape with
  | Log { weight } ->
    alpha_fair_deriv ~log_shape:true ~weight ~walpha:weight ~alpha:1. x
  | Power { weight; walpha; alpha; _ } ->
    alpha_fair_deriv ~log_shape:false ~weight ~walpha ~alpha x
  | Opaque -> u.deriv x

let[@inline] rate_from_price_fast u p =
  match u.shape with
  | Log { weight } ->
    alpha_fair_rate ~log_shape:true ~weight ~inv_alpha:(-1.) p
  | Power { weight; inv_alpha; _ } ->
    alpha_fair_rate ~log_shape:false ~weight ~inv_alpha p
  | Opaque -> cap_rate (u.inv_deriv (Fcmp.fmax p min_price))
