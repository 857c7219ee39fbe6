module Trace = Nf_util.Trace
module Metrics = Nf_util.Metrics

type residual_agg = Agg_min | Agg_mean

type params = { eta : float; beta : float; residual_agg : residual_agg }

let default_params = { eta = 5.; beta = 0.5; residual_agg = Agg_min }

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

let trace_iter tr iter =
  if Trace.on tr Trace.XwiIter then
    Trace.emit tr Trace.XwiIter ~subject:0 ~time:(float_of_int iter)
      (float_of_int iter)

(* Comparison-only [Float.max] / [Float.min] for the hot loops. The
   stdlib pair tests sign bits with [caml_signbit_float], a C call per
   comparison even when inlined; these use float comparisons only. They
   equal the stdlib pair bit for bit on every non-NaN input, ±0 included
   ([0. +. -0.] is [0.], [-.(-.0. -. -0.)] is [-0.]), and return a NaN
   operand as the stdlib pair does. Defined in each hot unit (here,
   [Maxmin], [Kkt], [Queue_disc]) rather than shared: dev-profile builds compile with
   -opaque, which disables cross-unit inlining, and a non-inlined
   float -> float call boxes its arguments and result. *)

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

(* Local copies of {!Utility.deriv_fast} / {!Utility.rate_from_price_fast},
   in-unit for the same -opaque reason: a cross-unit float call per flow
   per step would box. Bit-identical to the Utility versions on every
   input, NaN included (equivalence is tested). *)

let[@inline] udv_fast u x =
  match u.Utility.shape with
  | Utility.Log { weight } -> weight /. fmax x Utility.min_rate
  | Utility.Power { walpha; alpha; _ } ->
    walpha *. (fmax x Utility.min_rate ** -.alpha)
  | Utility.Opaque -> u.Utility.deriv x

let[@inline] urate_fast u p =
  let rate =
    match u.Utility.shape with
    | Utility.Log { weight } -> weight /. fmax p Utility.min_price
    | Utility.Power { weight; inv_alpha; _ } ->
      weight *. (fmax p Utility.min_price ** inv_alpha)
    | Utility.Opaque -> u.Utility.inv_deriv (fmax p Utility.min_price)
  in
  (* [rate < inf && rate > -inf] is [Float.is_finite] spelled with
     comparison primitives (NaN fails both); same cap semantics as
     [Utility.rate_from_price]. *)
  if rate < infinity && rate > neg_infinity then
    if rate <= Utility.max_rate_cap then rate else Utility.max_rate_cap
  else Utility.max_rate_cap

(* Per-state scratch: one allocation at [init], zero per [step]. The
   state's own [prices], [rates] and [weights] are the rest of the sparse
   step's working set (see DESIGN.md "Sparse NUM core"). Abstract in the
   interface so states can only come from the init functions. *)
type buffers = {
  b_old_prices : float array;  (* n_links; fixpoint-loop snapshot *)
  b_old_rates : float array;  (* n_flows; fixpoint-loop snapshot *)
  b_path_price : float array;  (* n_flows; computed once per step *)
  b_loads : float array;  (* n_links *)
  b_residual : float array;  (* n_flows *)
  b_group_rates : float array;  (* n_groups *)
  b_group_marginal : float array;  (* n_groups *)
  b_inv_len : float array;  (* n_flows; 1 / |L(i)|, fixed per problem *)
  b_utils : Utility.t array;  (* n_groups; the snapshot's, shared *)
  b_maxmin_sparse : Maxmin.sparse_workspace;
}

type state = {
  prices : float array;
  rates : float array;
  weights : float array;
  mutable pool : Nf_util.Shard.t option;
  mutable diag : Diag.t option;
  buffers : buffers;
  problem_gen : int;
      (* Problem.generation the buffers were sized for; [step] refuses a
         problem whose topology moved on (stale CSR/CSC shapes would
         corrupt memory through the unsafe sweeps). *)
}

let make_buffers problem =
  let n_links = Problem.n_links problem
  and n_flows = Problem.n_flows problem
  and n_groups = Problem.n_groups problem in
  {
    b_old_prices = Array.make n_links 0.;
    b_old_rates = Array.make n_flows 0.;
    b_path_price = Array.make n_flows 0.;
    b_loads = Array.make n_links 0.;
    b_residual = Array.make n_flows 0.;
    b_group_rates = Array.make n_groups 0.;
    b_group_marginal = Array.make n_groups 0.;
    b_inv_len =
      Array.init n_flows (fun i -> 1. /. float_of_int (Problem.path_len problem i));
    b_utils = Problem.utilities problem;
    b_maxmin_sparse = Maxmin.sparse_workspace (Problem.incidence problem);
  }

let equal_weight_rates problem =
  let inc = Problem.incidence problem in
  let n_flows = Problem.n_flows problem in
  let rates = Incidence.vec n_flows in
  Maxmin.solve_sparse (Maxmin.sparse_workspace inc) inc
    ~weights:(Array.make n_flows 1.) ~rates;
  rates

(* The xWI seed, shared by every solver that starts from it ([init],
   [Oracle.solve_dual], [Fluid_dgd]): the equal-weight max-min
   allocation, by the sparse water-fill, and per link
   p_l = max over flows on l of U'_g(y_g) / |L(i)|, the price each link
   would carry if it were the only bottleneck of its steepest flow. *)
let seed problem =
  let rates = equal_weight_rates problem in
  let n_flows = Problem.n_flows problem in
  let prices = Array.make (Problem.n_links problem) 0. in
  for i = 0 to n_flows - 1 do
    let g = Problem.flow_group problem i in
    let y = Problem.group_rate problem ~rates g in
    let marginal = (Problem.group_utility problem g).Utility.deriv (Float.max y 1e-12) in
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
      let w = urate_fast u (Array.unsafe_get path_prices i) in
      Array.unsafe_set out i (fmax w 1e-30)
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
        let w = urate_fast u (Array.unsafe_get path_prices i) in
        Array.unsafe_set out i (fmax w 1e-30)
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
          let total = urate_fast u (Array.unsafe_get path_prices i) in
          let share =
            if y > 1e-12 then Array.unsafe_get prev_rates i /. y else 1. /. n
          in
          Array.unsafe_set out i
            (fmax (total *. fmax share (1e-8 /. n)) 1e-30)
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
      (udv_fast u (fmax (Array.unsafe_get group_rates g) 1e-12))
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

(* Eqs. 9-11 for links [lo, hi): the per-link work reads only flow-level
   inputs (rates, residuals, loads) and its own old price, and writes only
   [prices.(l)], so updating in place is the synchronized update and the
   results are independent of how the range is chunked — the property the
   [Shard]-parallel dispatch depends on for [-j N] byte-identity. *)
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
            acc := fmin !acc (Array.unsafe_get residual i)
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
    let p_old = Array.unsafe_get prices l in
    (* [Fcmp.clamp ~lo:0. ~hi:1.] spelled in-unit: the cross-library
       call boxes its float argument and result — one box per link per
       step under -opaque builds. Identical on the reachable domain
       ([load >= 0], [caps > 0], so [r] is never NaN). *)
    let utilization =
      let r = load /. Array.unsafe_get caps l in
      if r > 0. then if r <= 1. then r else 1. else 0.
    in
    let p_new =
      if Float.is_finite min_res then
        fmax 0.
          (p_old +. min_res -. (params.eta *. (1. -. utilization) *. p_old))
      else
        (* No (significant) traffic: drive the price to zero via the
           utilization term alone. *)
        fmax 0. (p_old -. (params.eta *. (1. -. utilization) *. p_old))
    in
    Array.unsafe_set prices l
      ((params.beta *. p_old) +. ((1. -. params.beta) *. p_new))
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

(* Not [@nf.hot]: the sharded dispatch allocates one closure per call,
   which is deliberate — the tight loops above are the hot bodies. *)
let price_update (inc : Incidence.t) params state =
  Incidence.link_loads_into inc ~rates:state.rates ~out:state.buffers.b_loads;
  residuals inc state;
  match state.pool with
  | None -> price_links_range params inc state 0 inc.Incidence.n_links
  | Some pool -> (
    match state.diag with
    | None ->
      Nf_util.Shard.run pool ~n:inc.Incidence.n_links (fun lo hi ->
          price_links_range params inc state lo hi)
    | Some d ->
      Nf_util.Shard.run ~timings:(Diag.shard_timings d) pool
        ~n:inc.Incidence.n_links (fun lo hi ->
          price_links_range params inc state lo hi))

(* Auto-attach diagnostics when the process-wide [--diag] config is
   active; otherwise states start undiagnosed ([set_diag] can attach
   one explicitly). *)
let attach_diag problem =
  Diag.attach ~n_links:(Problem.n_links problem)
    ~n_flows:(Problem.n_flows problem)

let make_state ?pool problem ~prices ~rates =
  {
    prices;
    rates;
    weights = Array.make (Problem.n_flows problem) 1.;
    pool;
    diag = attach_diag problem;
    buffers = make_buffers problem;
    problem_gen = Problem.generation problem;
  }

let init ?pool problem =
  let rates, prices = seed problem in
  make_state ?pool problem ~prices ~rates

(* Weights from the given prices at the equal-weight allocation, then the
   allocation those weights induce. Only multipath groups read the
   allocation (their §6.3 split); when every group is a singleton the
   water-fill overwrites the rates unread, so the equal-weight solve and
   its throwaway workspace are skipped. *)
let init_with_prices ?pool problem ~prices =
  if Array.length prices <> Problem.n_links problem then
    invalid_arg "Xwi_core.init_with_prices: prices length";
  let inc = Problem.incidence problem in
  let rates =
    if inc.Incidence.singleton then Incidence.vec inc.Incidence.n_flows
    else equal_weight_rates problem
  in
  let state = make_state ?pool problem ~prices:(Array.copy prices) ~rates in
  allocate inc state;
  state

(* Warm restart across a problem delta: keep the converged per-link price
   vector (links are stable across flow churn), rebuild everything sized
   per-flow/per-group for the new snapshot. Near the old fixpoint the
   carried prices put the first Eq. 7 weight computation, and hence the
   first max-min allocation, close to right, but re-convergence still
   takes hundreds of iterations: on nfbench's serve_churn stream (a
   churning 100-flow leaf-spine, seed 1) about 274 per epoch on average
   and about 4000 at the p99. *)
let resize ?pool problem state =
  if Problem.n_links problem <> Array.length state.prices then
    invalid_arg "Xwi_core.resize: link count changed";
  let pool = match pool with Some _ as p -> p | None -> state.pool in
  init_with_prices ?pool problem ~prices:state.prices

let set_pool state pool = state.pool <- pool

let set_diag state diag = state.diag <- diag

let diag state = state.diag

(* One iteration, in place on the state's arrays (so live views such as
   [Fluid_xwi.rates_view] stay valid): path prices once, weights, max-min
   rates, the (possibly domain-sharded) price update. Steady-state
   stepping allocates nothing beyond the sharding dispatch closure. *)
let step problem params state =
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
    let shard_chunks =
      match state.pool with
      | None -> 0
      | Some pool -> Nf_util.Shard.jobs pool
    in
    Diag.observe d ~prices:state.prices ~rates:state.rates
      ~wf_rounds:(Maxmin.sparse_rounds ws)
      ~wf_level:(Maxmin.sparse_level ws)
      ~wf_saturated:(Maxmin.sparse_saturated_links ws)
      ~shard_chunks

type run = { iterations : int; converged : bool }

(* [residual] is the run's final convergence metric (relative fixpoint
   delta or KKT residual, per the entry point): it rides on the
   [XwiNonconverged] trace event and overrides the postmortem's meta
   residual, so a capped run's forensics carry the number the caller was
   actually iterating on. *)
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

let run_to_fixpoint ?(tol = 1e-10) ?(max_iters = 50_000) problem params state =
  Nf_util.Profile.time "xwi-solve" @@ fun () ->
  let n_links = Problem.n_links problem and n_flows = Problem.n_flows problem in
  let tr = Trace.default () in
  let old_prices = state.buffers.b_old_prices
  and old_rates = state.buffers.b_old_rates in
  (* Residual of the most recent iteration, for [finish_run] forensics at
     the cap (where the in-loop [delta] of the capped iteration is out of
     scope). *)
  let last_delta = ref infinity in
  let rec loop iter =
    if iter >= max_iters then
      finish_run state ~residual:!last_delta
        { iterations = iter; converged = false }
    else begin
      Array.blit state.prices 0 old_prices 0 n_links;
      Array.blit state.rates 0 old_rates 0 n_flows;
      step problem params state;
      trace_iter tr (iter + 1);
      let delta = ref 0. in
      for l = 0 to n_links - 1 do
        let scale = fmax (Float.abs old_prices.(l)) 1e-30 in
        delta := fmax !delta (Float.abs (state.prices.(l) -. old_prices.(l)) /. scale)
      done;
      for i = 0 to n_flows - 1 do
        let scale = fmax (Float.abs old_rates.(i)) 1e-30 in
        delta := fmax !delta (Float.abs (state.rates.(i) -. old_rates.(i)) /. scale)
      done;
      last_delta := !delta;
      if !delta < tol then
        finish_run state ~residual:!delta
          { iterations = iter + 1; converged = true }
      else loop (iter + 1)
    end
  in
  loop 0

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
  let iter = ref 0 and worst = ref infinity and checking = ref true in
  let advance () =
    let chunk = Stdlib.min check_every (max_iters - !iter) in
    for k = 1 to chunk do
      step problem params state;
      trace_iter tr (!iter + k)
    done;
    iter := !iter + chunk
  in
  while !checking do
    if !witness >= 0 && !iter < max_iters
       && (incr witness_checks;
           not
             (Kkt.flow_residual ~used_threshold problem ~rates ~prices !witness
             <= tol))
    then advance ()
    else begin
      incr full_checks;
      worst :=
        Kkt.worst
          (Kkt.check_into ~used_threshold ~witness problem ~rates ~prices ~loads);
      if !worst <= tol || !iter >= max_iters then checking := false
      else advance ()
    end
  done;
  Metrics.add m_kkt_full_checks !full_checks;
  Metrics.add m_kkt_witness_checks !witness_checks;
  finish_run state ~residual:!worst
    { iterations = !iter; converged = !worst <= tol }
