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

(* One group-major CSR sweep computes each group's rate and marginal
   once, every member's path price, and the link loads; then one pass
   over the links. Flows are numbered group-major, so the sweep visits
   them in id order and accumulates [loads] exactly as
   [Incidence.link_loads_into] does. Every residual is a max, which is
   order-free, so the report is bit-identical to the per-flow
   definition in kkt.mli. *)
let check_into ?(used_threshold = 1e-6) problem ~rates ~prices ~loads =
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
      let gap = marginal -. !price in
      if x > used_floor then
        stationarity := fmax !stationarity (Float.abs gap /. scale)
      else unused_direction := fmax !unused_direction (fmax 0. gap /. scale)
    done
  done;
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

let check ?used_threshold problem ~rates ~prices =
  check_into ?used_threshold problem ~rates ~prices
    ~loads:(Array.make (Problem.n_links problem) 0.)

let pp ppf r =
  Format.fprintf ppf
    "stationarity=%.3g unused=%.3g feasibility=%.3g slackness=%.3g"
    r.stationarity r.unused_direction r.feasibility r.slackness
