type report = {
  stationarity : float;
  unused_direction : float;
  feasibility : float;
  slackness : float;
}

(* Comparison-only [Float.max]: bit-identical to it on every non-NaN
   input (±0 included: [0. +. -0.] is [0.]) and NaN-propagating like it,
   without the [caml_signbit_float] C calls the stdlib version makes per
   comparison. In-unit for the reason given at [Xwi_core.fmax]. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if Float.is_nan x then x
  else if Float.is_nan y then y
  else if Float.equal x 0. then x +. y
  else x

let worst r =
  fmax r.stationarity
    (fmax r.unused_direction (fmax r.feasibility r.slackness))

(* In-unit [Utility.deriv_fast]: same expressions as the closures, so the
   marginal is bit-identical to [(Problem.group_utility p g).deriv y]. *)
let[@inline] deriv u x =
  match u.Utility.shape with
  | Utility.Log { weight } -> weight /. fmax x Utility.min_rate
  | Utility.Power { walpha; alpha; _ } ->
    walpha *. (fmax x Utility.min_rate ** -.alpha)
  | Utility.Opaque -> u.Utility.deriv x

let default_used_threshold = 1e-6

(* One flow's term of the stationarity / unused-direction max, from its
   group's [marginal] U'_g(y_g), [scale] = max(marginal, 1e-30) and
   [used_floor] = used_threshold * max(y_g, 1e-30): |gap| / scale for a
   used sub-flow, gap+ / scale for an idle one. The single definition both
   [check_into]'s sweep and [flow_residual] evaluate, so a witness flow's
   residual is bit-identical to its term in the full check. *)
let[@inline] member_residual ~marginal ~scale ~(used_floor : float) (x : float)
    price =
  let gap = marginal -. price in
  if x > used_floor then Float.abs gap /. scale else fmax 0. gap /. scale

(* One group-major CSR sweep computes each group's rate and marginal
   once, every member's path price, and the link loads; then one pass
   over the links. Flows are numbered group-major, so the sweep visits
   them in id order and accumulates [loads] exactly as
   [Incidence.link_loads_into] does. Every residual is a max, which is
   order-free, so the report is bit-identical to the per-flow
   definition in kkt.mli. *)
let check_into ?(used_threshold = default_used_threshold) ?witness problem
    ~rates ~prices ~loads =
  let inc = Problem.incidence problem in
  let n_flows = inc.Incidence.n_flows and n_links = inc.Incidence.n_links in
  if Array.length rates <> n_flows then invalid_arg "Kkt.check: rates length";
  if Array.length prices <> n_links then invalid_arg "Kkt.check: prices length";
  if Array.length loads <> n_links then invalid_arg "Kkt.check: loads length";
  let utils = Problem.utilities problem in
  let row_ptr = inc.Incidence.row_ptr
  and row_cols = inc.Incidence.row_cols
  and grp_ptr = inc.Incidence.grp_ptr
  and grp_flows = inc.Incidence.grp_flows
  and caps = inc.Incidence.caps in
  Array.fill loads 0 n_links 0.;
  let stationarity = ref 0. and unused_direction = ref 0. in
  (* The flow with the largest term so far; a NaN term wins and keeps
     the place, since it fails every tolerance. *)
  let top = ref (-1) and top_r = ref neg_infinity in
  for g = 0 to inc.Incidence.n_groups - 1 do
    let start = Array.unsafe_get grp_ptr g in
    let stop = Array.unsafe_get grp_ptr (g + 1) in
    let y = ref 0. in
    for k = start to stop - 1 do
      y := !y +. Array.unsafe_get rates (Array.unsafe_get grp_flows k)
    done;
    let y = !y in
    let marginal = deriv (Array.unsafe_get utils g) y in
    let scale = fmax marginal 1e-30 in
    let used_floor = used_threshold *. fmax y 1e-30 in
    for k = start to stop - 1 do
      let i = Array.unsafe_get grp_flows k in
      let x = Array.unsafe_get rates i in
      let price = ref 0. in
      for j = Array.unsafe_get row_ptr i to Array.unsafe_get row_ptr (i + 1) - 1 do
        let l = Array.unsafe_get row_cols j in
        price := !price +. Array.unsafe_get prices l;
        Array.unsafe_set loads l (Array.unsafe_get loads l +. x)
      done;
      let r = member_residual ~marginal ~scale ~used_floor x !price in
      if x > used_floor then stationarity := fmax !stationarity r
      else unused_direction := fmax !unused_direction r;
      if (r > !top_r || Float.is_nan r) && not (Float.is_nan !top_r) then begin
        top := i;
        top_r := r
      end
    done
  done;
  (match witness with Some w -> w := !top | None -> ());
  let feasibility = ref 0. and p_ref = ref 0. in
  for l = 0 to n_links - 1 do
    let cap = Array.unsafe_get caps l in
    feasibility :=
      fmax !feasibility (fmax 0. (Array.unsafe_get loads l -. cap) /. cap);
    p_ref := fmax !p_ref (Array.unsafe_get prices l)
  done;
  let p_ref = !p_ref in
  let slackness = ref 0. in
  if p_ref > 0. then
    for l = 0 to n_links - 1 do
      let cap = Array.unsafe_get caps l in
      let slack = fmax 0. (cap -. Array.unsafe_get loads l) in
      slackness :=
        fmax !slackness (Array.unsafe_get prices l *. slack /. (p_ref *. cap))
    done;
  {
    stationarity = !stationarity;
    unused_direction = !unused_direction;
    feasibility = !feasibility;
    slackness = !slackness;
  }

(* [check_into]'s per-member term for one flow, its group rate summed in
   member order and its path price in path order as the sweep does, so
   the result is that term bit for bit. [used_threshold] is not optional:
   the optional-argument wrapper would leave the body out of line in the
   caller, and its float result boxed. *)
let[@inline] flow_residual ~used_threshold problem ~rates ~prices i =
  let inc = Problem.incidence problem in
  if Array.length rates <> inc.Incidence.n_flows then
    invalid_arg "Kkt.flow_residual: rates length";
  if Array.length prices <> inc.Incidence.n_links then
    invalid_arg "Kkt.flow_residual: prices length";
  if i < 0 || i >= inc.Incidence.n_flows then
    invalid_arg "Kkt.flow_residual: flow id";
  let row_ptr = inc.Incidence.row_ptr
  and row_cols = inc.Incidence.row_cols
  and grp_ptr = inc.Incidence.grp_ptr
  and grp_flows = inc.Incidence.grp_flows in
  let g = Array.unsafe_get inc.Incidence.group_of_flow i in
  let y = ref 0. in
  for k = Array.unsafe_get grp_ptr g to Array.unsafe_get grp_ptr (g + 1) - 1 do
    y := !y +. Array.unsafe_get rates (Array.unsafe_get grp_flows k)
  done;
  let y = !y in
  let marginal = deriv (Array.unsafe_get (Problem.utilities problem) g) y in
  let price = ref 0. in
  for j = Array.unsafe_get row_ptr i to Array.unsafe_get row_ptr (i + 1) - 1 do
    price := !price +. Array.unsafe_get prices (Array.unsafe_get row_cols j)
  done;
  member_residual ~marginal ~scale:(fmax marginal 1e-30)
    ~used_floor:(used_threshold *. fmax y 1e-30)
    (Array.unsafe_get rates i) !price

let check ?used_threshold problem ~rates ~prices =
  check_into ?used_threshold problem ~rates ~prices
    ~loads:(Array.make (Problem.n_links problem) 0.)

let pp ppf r =
  Format.fprintf ppf
    "stationarity=%.3g unused=%.3g feasibility=%.3g slackness=%.3g"
    r.stationarity r.unused_direction r.feasibility r.slackness
