module Trace = Nf_util.Trace
module Metrics = Nf_util.Metrics
module Fcmp = Nf_util.Fcmp

type residual_agg = Agg_min | Agg_mean

type params = { eta : float; beta : float; residual_agg : residual_agg }

let default_params =
  { eta = Price_law.eta; beta = Price_law.beta; residual_agg = Agg_min }

(* Observability: solver runs report their iteration counts (the paper's
   key convergence statistic) and every iteration can be traced. *)
let m_runs =
  Metrics.counter Metrics.global ~help:"xWI solver runs" "nf_xwi_runs_total"

let m_converged =
  Metrics.counter Metrics.global ~help:"xWI solver runs that converged"
    "nf_xwi_converged_total"

let m_nonconverged =
  Metrics.counter Metrics.global
    ~help:"xWI solver runs that hit their iteration cap"
    "nf_xwi_nonconverged_total"

let m_iterations =
  Metrics.histogram Metrics.global
    ~help:"Iterations per xWI solver run"
    ~buckets:[ 10.; 30.; 100.; 300.; 1000.; 3000.; 10000.; 30000. ]
    "nf_xwi_iterations"

let m_kkt_full_checks =
  Metrics.counter Metrics.global
    ~help:"Full KKT sweeps run by run_until_kkt's stopping test"
    "nf_xwi_kkt_full_checks_total"

let m_kkt_witness_checks =
  Metrics.counter Metrics.global
    ~help:"One-flow witness residuals run by run_until_kkt's stopping test"
    "nf_xwi_kkt_witness_checks_total"

let m_polished_starts =
  Metrics.counter Metrics.global
    ~help:"Warm restarts that asked for a polish and start from the polished prices"
    "nf_xwi_polished_starts_total"

let m_carried_starts =
  Metrics.counter Metrics.global
    ~help:"Warm restarts that asked for a polish and keep the carried prices"
    "nf_xwi_carried_starts_total"

let m_cold_polished_starts =
  Metrics.counter Metrics.global
    ~help:"Cold starts (init) from the Newton polish of zero prices"
    "nf_xwi_cold_polished_starts_total"

let m_cold_seed_starts =
  Metrics.counter Metrics.global
    ~help:"Cold starts (init) that keep the seed: no polish applies, or it failed"
    "nf_xwi_cold_seed_starts_total"

let trace_iter tr iter =
  if Trace.on tr Trace.XwiIter then
    Trace.emit tr Trace.XwiIter ~subject:0 ~time:(float_of_int iter)
      (float_of_int iter)

(* Per-state scratch: one allocation at [at_seed], zero per [step]. The
   state's own [prices], [rates] and [weights] are the rest of the sparse
   step's working set (see DESIGN.md "Sparse NUM core"). Abstract in the
   interface so states can only come from [at_seed], [init] and
   [resize]. [resize] hands the whole record down to the state it
   builds, with the old state's [prices] array: the link-sized
   arrays carry over as they are, the per-flow and per-group ones hold at
   least the problem's counts (every sweep is bounded by the incidence's
   counts, never by these lengths) and grow with headroom, and
   [b_owner] names the owner, the state whose [owner] token it is. *)
type buffers = {
  b_polish_out : float array;  (* n_links; the polished prices *)
  mutable b_path_price : float array;  (* >= n_flows; computed once per step *)
  b_loads : float array;  (* n_links *)
  mutable b_residual : float array;  (* >= n_flows *)
  mutable b_group_rates : float array;  (* >= n_groups *)
  mutable b_group_marginal : float array;  (* >= n_groups *)
  mutable b_inv_len : float array;  (* >= n_flows; 1 / |L(i)|, fixed per problem *)
  mutable b_utils : Utility.t array;  (* n_groups; the snapshot's, shared *)
  b_maxmin_sparse : Maxmin.sparse_workspace;
  b_polish : Newton_polish.t;  (* [init]'s and [resize]'s scratch *)
  mutable b_polished : bool;  (* [init] or [resize] kept the polished start *)
  mutable b_owner : int;  (* the owning state's [owner] token *)
}

type state = {
  prices : float array;
  rates : float array;
  weights : float array;
  diag : Diag.t option;
  buffers : buffers;
  problem_gen : int;
      (* Problem.generation the buffers were sized for; [step] refuses a
         problem whose topology moved on (stale CSR/CSC shapes would
         corrupt memory through the unsafe sweeps). *)
  owner : int;  (* the token [buffers.b_owner] holds while this state owns them *)
}

(* 1 / |L(i)| for every flow of [inc], into [out]. *)
let fill_inv_len (inc : Incidence.t) out =
  let row_ptr = inc.Incidence.row_ptr in
  for i = 0 to inc.Incidence.n_flows - 1 do
    out.(i) <- 1. /. float_of_int (row_ptr.(i + 1) - row_ptr.(i))
  done

let make_buffers problem =
  let n_links = Problem.n_links problem
  and n_flows = Problem.n_flows problem
  and n_groups = Problem.n_groups problem in
  let inc = Problem.incidence problem in
  let inv_len = Array.make n_flows 0. in
  fill_inv_len inc inv_len;
  {
    b_polish_out = Array.make n_links 0.;
    b_path_price = Array.make n_flows 0.;
    b_loads = Array.make n_links 0.;
    b_residual = Array.make n_flows 0.;
    b_group_rates = Array.make n_groups 0.;
    b_group_marginal = Array.make n_groups 0.;
    b_inv_len = inv_len;
    b_utils = Problem.utilities problem;
    b_maxmin_sparse = Maxmin.sparse_workspace inc;
    b_polish = Newton_polish.create ();
    b_polished = false;
    b_owner = 0;
  }

(* [a] if it holds [n] floats, else a zeroed array with headroom. *)
let reserve a n = if Array.length a >= n then a else Array.make (n + (n / 2)) 0.

(* Re-size [bufs] in place for the problem's current snapshot (same link
   count): [resize]'s half of the handoff. *)
let refresh_buffers bufs problem =
  let inc = Problem.incidence problem in
  let n_flows = inc.Incidence.n_flows and n_groups = inc.Incidence.n_groups in
  bufs.b_path_price <- reserve bufs.b_path_price n_flows;
  bufs.b_residual <- reserve bufs.b_residual n_flows;
  bufs.b_inv_len <- reserve bufs.b_inv_len n_flows;
  bufs.b_group_rates <- reserve bufs.b_group_rates n_groups;
  bufs.b_group_marginal <- reserve bufs.b_group_marginal n_groups;
  fill_inv_len inc bufs.b_inv_len;
  bufs.b_utils <- Problem.utilities problem;
  Maxmin.sparse_refresh bufs.b_maxmin_sparse inc;
  bufs.b_polished <- false

(* A water-fill leaves nothing in its workspace that the next one reads,
   so [ws] may be any workspace sized for the problem. *)
let equal_weight_rates ws problem =
  let inc = Problem.incidence problem in
  let n_flows = Problem.n_flows problem in
  let rates = Incidence.vec n_flows in
  Maxmin.solve_sparse ws inc ~weights:(Array.make n_flows 1.) ~rates;
  rates

(* The xWI seed, shared by every solver that starts from it ([at_seed],
   [Fluid_dgd], the tests' dual gradient reference): the equal-weight max-min
   allocation, by the sparse water-fill, and per link
   p_l = max over flows on l of U'_g(y_g) / |L(i)|, the price each link
   would carry if it were the only bottleneck of its steepest flow. *)
let seed problem =
  let rates =
    equal_weight_rates (Maxmin.sparse_workspace (Problem.incidence problem)) problem
  in
  let n_flows = Problem.n_flows problem in
  let prices = Array.make (Problem.n_links problem) 0. in
  for i = 0 to n_flows - 1 do
    let g = Problem.flow_group problem i in
    let y = Problem.group_rate problem ~rates g in
    let marginal = Utility.deriv (Problem.group_utility problem g) (Float.max y 1e-12) in
    let share = marginal /. float_of_int (Problem.path_len problem i) in
    Array.iter
      (fun l -> if share > prices.(l) then prices.(l) <- share)
      (Problem.flow_path problem i)
  done;
  (rates, prices)

(* ------------------------------------------------------------------ *)
(* The step pipeline. Every sweep is a tight loop over the CSR/CSC index
   arrays of the problem's [Incidence.t], reading and writing the state's
   own arrays, and the path prices are computed exactly once per step:
   the prices do not change between the Eq. 7 weight computation and the
   Eq. 9 residual computation, so both read [b_path_price]. Accumulation
   orders match [Reference] operand for operand; only the water-fill
   rounds differently (see [Maxmin.solve_sparse]). *)

(* Eq. 7 plus the §6.3 multipath split; all weights strictly positive. *)
let[@nf.hot] flow_weights (utils : Utility.t array) (inc : Incidence.t)
    ~(path_prices : float array) ~(prev_rates : float array)
    ~(out : float array) =
  if inc.Incidence.singleton then
    (* All groups are singletons, and flows are numbered group-major, so
       flow [i] is exactly group [i]: skip the group indirection. *)
    for i = 0 to inc.Incidence.n_flows - 1 do
      let u = Array.unsafe_get utils i in
      let w = Utility.rate_from_price u (Array.unsafe_get path_prices i) in
      Array.unsafe_set out i (Fcmp.fmax w 1e-30)
    done
  else begin
    let grp_ptr = inc.Incidence.grp_ptr
    and grp_flows = inc.Incidence.grp_flows in
    for g = 0 to inc.Incidence.n_groups - 1 do
      let start = Array.unsafe_get grp_ptr g in
      let stop = Array.unsafe_get grp_ptr (g + 1) in
      let u = Array.unsafe_get utils g in
      if stop - start = 1 then begin
        let i = Array.unsafe_get grp_flows start in
        let w =
          Utility.rate_from_price u (Array.unsafe_get path_prices i)
        in
        Array.unsafe_set out i (Fcmp.fmax w 1e-30)
      end
      else begin
        (* §6.3: each sub-flow computes the group-level weight from its
           own path price, then scales it by its share of the group
           throughput (tiny floor so idle sub-flows keep probing). *)
        let y = ref 0. in
        for k = start to stop - 1 do
          y := !y +. Array.unsafe_get prev_rates (Array.unsafe_get grp_flows k)
        done;
        let y = !y in
        let n = float_of_int (stop - start) in
        for k = start to stop - 1 do
          let i = Array.unsafe_get grp_flows k in
          let total =
            Utility.rate_from_price u (Array.unsafe_get path_prices i)
          in
          let share =
            if y > 1e-12 then Array.unsafe_get prev_rates i /. y else 1. /. n
          in
          Array.unsafe_set out i
            (Fcmp.fmax (total *. Fcmp.fmax share (1e-8 /. n)) 1e-30)
        done
      end
    done
  end

(* Eq. 9 residuals per flow: marginal utility of the flow's group at the
   fresh rates, minus the (pre-update) path price, normalized by path
   length. *)
let[@nf.hot] residuals (inc : Incidence.t) state =
  let bufs = state.buffers in
  let group_rates = bufs.b_group_rates
  and group_marginal = bufs.b_group_marginal
  and path_prices = bufs.b_path_price
  and residual = bufs.b_residual
  and utils = bufs.b_utils
  and inv_len = bufs.b_inv_len in
  Incidence.group_rates_into inc ~rates:state.rates ~out:group_rates;
  for g = 0 to inc.Incidence.n_groups - 1 do
    let u = Array.unsafe_get utils g in
    Array.unsafe_set group_marginal g
      (Utility.deriv u (Fcmp.fmax (Array.unsafe_get group_rates g) 1e-12))
  done;
  let group_of_flow = inc.Incidence.group_of_flow in
  (* [* inv_len] instead of [Reference]'s [/ len]: up to an ulp apart when
     the path length is not a power of two, well inside the oracle
     tolerance, and it keeps a division off the per-flow path. *)
  for i = 0 to inc.Incidence.n_flows - 1 do
    let g = Array.unsafe_get group_of_flow i in
    Array.unsafe_set residual i
      ((Array.unsafe_get group_marginal g -. Array.unsafe_get path_prices i)
      *. Array.unsafe_get inv_len i)
  done

(* Eqs. 10-11 for one link: the price step from the smallest residual
   [min_res] (none when it is not finite: the utilization term alone
   then drives the price to zero) and the load-to-capacity ratio, then
   the beta-average with the old price. The ratio is clamped to [0, 1]
   in-unit, as [Fcmp.clamp ~lo:0. ~hi:1.] would on the reachable domain
   (never NaN); the cross-library call would box. *)
let[@inline] link_price params ~p_old ~min_res ~utilization =
  let utilization =
    if utilization > 0. then if utilization <= 1. then utilization else 1.
    else 0.
  in
  let p_new =
    if Float.is_finite min_res then
      Fcmp.fmax 0.
        (p_old +. min_res -. (params.eta *. (1. -. utilization) *. p_old))
    else Fcmp.fmax 0. (p_old -. (params.eta *. (1. -. utilization) *. p_old))
  in
  (params.beta *. p_old) +. ((1. -. params.beta) *. p_new)

type port = {
  mutable price : float;
  mutable min_residual : float;
  mutable utilization : float;
}

let port_update params p =
  p.price <-
    link_price params ~p_old:p.price ~min_res:p.min_residual
      ~utilization:p.utilization

(* Eqs. 9-11 for links [lo, hi): the per-link work reads only flow-level
   inputs (rates, residuals, loads) and its own old price, and writes only
   [prices.(l)], so updating in place is the synchronized update. *)
let[@nf.hot] price_links_range params (inc : Incidence.t) state lo hi =
  let col_ptr = inc.Incidence.col_ptr
  and col_rows = inc.Incidence.col_rows
  and caps = inc.Incidence.caps in
  let rates = state.rates
  and residual = state.buffers.b_residual
  and loads = state.buffers.b_loads
  and prices = state.prices in
  for l = lo to hi - 1 do
    let start = Array.unsafe_get col_ptr l in
    let stop = Array.unsafe_get col_ptr (l + 1) in
    (* Sub-flows carrying negligible traffic (relative to the average
       flow here) contribute no residuals at the switch; excluding them
       also keeps an optimally-unused sub-flow (whose residual is
       legitimately negative) from dragging the price below the fixed
       point. *)
    let n_here = float_of_int (stop - start) in
    let load = Array.unsafe_get loads l in
    let negligible = 1e-3 *. load in
    let min_res =
      match params.residual_agg with
      | Agg_min ->
        let acc = ref infinity in
        for k = start to stop - 1 do
          let i = Array.unsafe_get col_rows k in
          if Array.unsafe_get rates i *. n_here >= negligible then
            acc := Fcmp.fmin !acc (Array.unsafe_get residual i)
        done;
        !acc
      | Agg_mean ->
        let sum = ref 0. and count = ref 0 in
        for k = start to stop - 1 do
          let i = Array.unsafe_get col_rows k in
          if Array.unsafe_get rates i *. n_here >= negligible then begin
            sum := !sum +. Array.unsafe_get residual i;
            incr count
          end
        done;
        if !count = 0 then infinity else !sum /. float_of_int !count
    in
    Array.unsafe_set prices l
      (link_price params ~p_old:(Array.unsafe_get prices l) ~min_res
         ~utilization:(load /. Array.unsafe_get caps l))
  done

(* The first half of an iteration: Eq. 7 weights at the state's prices
   (path prices computed once, kept for the residuals), then the max-min
   rates those weights induce (Eq. 8). *)
let allocate (inc : Incidence.t) state =
  let bufs = state.buffers in
  Incidence.path_prices_into inc ~prices:state.prices ~out:bufs.b_path_price;
  flow_weights bufs.b_utils inc ~path_prices:bufs.b_path_price
    ~prev_rates:state.rates ~out:state.weights;
  Maxmin.solve_sparse bufs.b_maxmin_sparse inc ~weights:state.weights
    ~rates:state.rates

let[@nf.hot] price_update (inc : Incidence.t) params state =
  Incidence.link_loads_into inc ~rates:state.rates ~out:state.buffers.b_loads;
  residuals inc state;
  price_links_range params inc state 0 inc.Incidence.n_links

(* Auto-attach diagnostics when the process-wide [--diag] config is
   active; otherwise states start undiagnosed. *)
let attach_diag problem =
  Diag.attach ~n_links:(Problem.n_links problem)
    ~n_flows:(Problem.n_flows problem)

(* A state that owns [buffers] from now on, under a fresh token. *)
let make_state ~buffers problem ~prices ~rates =
  let owner = buffers.b_owner + 1 in
  buffers.b_owner <- owner;
  {
    prices;
    rates;
    weights = Array.make (Problem.n_flows problem) 1.;
    diag = attach_diag problem;
    buffers;
    problem_gen = Problem.generation problem;
    owner;
  }

let at_seed problem =
  let rates, prices = seed problem in
  make_state ~buffers:(make_buffers problem) problem ~prices ~rates

(* A state at the given prices array, handed down, not copied, whose
   rates [allocate] has yet to fill: the equal-weight allocation, which
   only multipath groups read (their §6.3 split); when every group is a
   singleton the water-fill overwrites the rates unread, so the
   equal-weight solve is skipped. *)
let at_prices ~buffers problem ~prices =
  let inc = Problem.incidence problem in
  let rates =
    if inc.Incidence.singleton then Incidence.vec inc.Incidence.n_flows
    else equal_weight_rates buffers.b_maxmin_sparse problem
  in
  make_state ~buffers problem ~prices ~rates

(* The carried start's rates, for [Newton_polish.solve]: the Eq. 7
   weights at the state's (carried) prices and their water-fill. Top
   level and closed, so passing it allocates no closure. *)
let carried_rates problem state =
  allocate (Problem.incidence problem) state;
  state.rates

(* [Newton_polish.solve] from [prices], with [rates] the allocation
   they induce: on success the state takes the polished prices and is
   marked polished; on failure it is untouched. *)
let polish problem state ~prices ~rates =
  let bufs = state.buffers in
  let polished = bufs.b_polish_out in
  Newton_polish.solve bufs.b_polish problem ~prices ~carried:state ~rates ~out:polished
  && begin
    Array.blit polished 0 state.prices 0 (Array.length polished);
    bufs.b_polished <- true;
    true
  end

(* The polish first, then the one water-fill of the start it keeps
   (DESIGN.md "Warm restart"): a polish that succeeds is the start; one
   that fails leaves the carried start, the water-fill of the carried
   prices, bit for bit. The carried prices are water-filled before the
   polish's end only when it asks for [carried_rates]. *)
let polish_start problem state =
  ignore (polish problem state ~prices:state.prices ~rates:carried_rates : bool);
  allocate (Problem.incidence problem) state

let consumed state = not (Int.equal state.owner state.buffers.b_owner)

(* The links some flow crosses: the non-empty CSC columns. *)
let busy_links (inc : Incidence.t) =
  let col_ptr = inc.Incidence.col_ptr and n = ref 0 in
  for l = 0 to inc.Incidence.n_links - 1 do
    if col_ptr.(l + 1) > col_ptr.(l) then incr n
  done;
  !n

(* The seed's rates, for the cold polish: the equal-weight water-fill,
   which [seed] has already run, is what zero prices induce. *)
let seed_rates (_ : Problem.t) state = state.rates

(* Cold start (DESIGN.md "Warm restart"): the Newton polish of zero
   prices. No link clears the polish's 1e-3 p_max floor, so each flow is
   covered by its lowest-id link the equal-weight water-fill saturates,
   priced at the flow's marginal utility there: the polish solves the
   centralized problem's KKT system from scratch. Tried only where its
   dense factor can hold every busy link; a failed or skipped polish
   leaves the seed state bit for bit. *)
let init problem =
  let state = at_seed problem in
  let inc = Problem.incidence problem in
  if
    Newton_polish.eligible problem
    && busy_links inc <= Newton_polish.max_active
    && polish problem state ~prices:(Array.make inc.Incidence.n_links 0.)
         ~rates:seed_rates
  then begin
    allocate inc state;
    Metrics.incr m_cold_polished_starts
  end
  else Metrics.incr m_cold_seed_starts;
  state

(* Warm restart across a problem delta: keep the converged per-link price
   vector (links are stable across flow churn), re-size the old state's
   scratch in place for the new snapshot and hand it down with the price
   array itself, then try the Newton polish of the carried prices unless
   the caller asked for the carried start. On nfbench's serve_churn stream (a churning 100-flow
   leaf-spine) the carried start alone needs a median of about 105 xWI
   iterations to re-certify an epoch, and the polished start certifies
   every one of 30,000 epochs (seeds 1-10) at iteration 0. *)
let resize ?(polish = true) problem state =
  if Problem.n_links problem <> Array.length state.prices then
    invalid_arg "Xwi_core.resize: link count changed";
  if consumed state then
    invalid_arg "Xwi_core.resize: state already consumed by a resize";
  let buffers = state.buffers in
  refresh_buffers buffers problem;
  let state = at_prices ~buffers problem ~prices:state.prices in
  if polish && Newton_polish.eligible problem then polish_start problem state
  else allocate (Problem.incidence problem) state;
  if polish then
    Metrics.incr
      (if state.buffers.b_polished then m_polished_starts else m_carried_starts);
  state

let polished state = state.buffers.b_polished

(* One iteration, in place on the state's arrays (so live views such as
   [Fluid_xwi.rates_view] stay valid): path prices once, weights, max-min
   rates, the price update. Steady-state stepping allocates nothing. *)
let step problem params state =
  if consumed state then
    invalid_arg "Xwi_core.step: state consumed by Xwi_core.resize";
  if not (Int.equal (Problem.generation problem) state.problem_gen) then
    invalid_arg
      "Xwi_core.step: problem topology changed since init; call Xwi_core.resize";
  let inc = Problem.incidence problem in
  (match state.diag with
  | None -> ()
  | Some d -> Diag.begin_iter d ~prices:state.prices ~rates:state.rates);
  allocate inc state;
  price_update inc params state;
  match state.diag with
  | None -> ()
  | Some d ->
    let ws = state.buffers.b_maxmin_sparse in
    Diag.observe d ~prices:state.prices ~rates:state.rates
      ~wf_rounds:(Maxmin.sparse_rounds ws)
      ~wf_level:(Maxmin.sparse_level ws)
      ~wf_saturated:(Maxmin.sparse_saturated_links ws)

type run = { iterations : int; converged : bool; kkt : Kkt.report }

(* [residual] is the run's final convergence metric (the worst KKT
   residual of its last check): it rides on the [XwiNonconverged] trace
   event and is the postmortem's meta residual, so a capped run's
   forensics carry the number the caller was actually iterating on. *)
let finish_run state ~residual run =
  Metrics.incr m_runs;
  if run.converged then Metrics.incr m_converged
  else begin
    Metrics.incr m_nonconverged;
    let tr = Trace.default () in
    if Trace.on tr Trace.XwiNonconverged then
      Trace.emit tr Trace.XwiNonconverged ~subject:0
        ~time:(float_of_int run.iterations)
        ~aux:(float_of_int run.iterations)
        residual;
    match state.diag with
    | None -> ()
    | Some d -> Diag.dump_auto ~final_residual:residual d ~converged:false
  end;
  Metrics.observe m_iterations (float_of_int run.iterations);
  run

let run_until_kkt ?(tol = 1e-6) ?(check_every = 10) ?(max_iters = 50_000) problem
    params state =
  Nf_util.Profile.time "xwi-solve" @@ fun () ->
  let tr = Trace.default () in
  let rates = state.rates and prices = state.prices in
  (* The check's link loads go to the state's own [b_loads]: the next
     [step] recomputes them before reading, so the stopping test
     allocates nothing but its report. *)
  let loads = state.buffers.b_loads in
  (* Witness-first stopping test (DESIGN.md "KKT stopping test"): after a
     failed full check, [witness] is its worst flow, and while that one
     flow's residual is not [<= tol] the full check would fail too, so the
     run steps on without it. Iterations, [converged] and the reported
     residual are those of a full check at every check point. *)
  let witness = ref (-1) and used_threshold = Kkt.default_used_threshold in
  let full_checks = ref 0 and witness_checks = ref 0 in
  let iter = ref 0 in
  let advance () =
    let chunk = Stdlib.min check_every (max_iters - !iter) in
    for k = 1 to chunk do
      step problem params state;
      trace_iter tr (!iter + k)
    done;
    iter := !iter + chunk
  in
  let full_check () =
    incr full_checks;
    Kkt.check_into ~used_threshold ~witness problem ~rates ~prices ~loads
  in
  let report = ref (full_check ()) in
  while not (Kkt.worst !report <= tol || !iter >= max_iters) do
    advance ();
    while
      !witness >= 0 && !iter < max_iters
      && (incr witness_checks;
          not
            (Kkt.flow_residual ~used_threshold problem ~rates ~prices !witness
            <= tol))
    do
      advance ()
    done;
    report := full_check ()
  done;
  Metrics.add m_kkt_full_checks !full_checks;
  Metrics.add m_kkt_witness_checks !witness_checks;
  let worst = Kkt.worst !report in
  finish_run state ~residual:worst
    { iterations = !iter; converged = worst <= tol; kkt = !report }

let solve ?tol ?check_every ?max_iters problem prev =
  let state =
    match prev with Some old -> resize problem old | None -> init problem
  in
  (state, run_until_kkt ?tol ?check_every ?max_iters problem default_params state)
