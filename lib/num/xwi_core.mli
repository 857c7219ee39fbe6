(** The xWI (eXplicit Weight Inference) iteration — the paper's core
    algorithm (§4.2).

    One iteration, given link prices [p(t)]:
    + every flow sets its Swift weight [w_i = U'^-1(Σ_{l ∈ L(i)} p_l)]
      (Eq. 7); multipath groups split the group weight across sub-flows in
      proportion to their current throughput share (§6.3's heuristic);
    + the network allocates the weighted max-min rates [x(t)] for these
      weights (Eq. 8) — here computed exactly by {!Maxmin}, in the packet
      simulator achieved by Swift;
    + every link updates its price from the smallest normalized KKT
      residual of its flows and its utilization (Eqs. 9–10), smoothed by
      [β]-averaging (Eq. 11).

    This module is the {e fluid} (noise-free, synchronous) form; the
    packet-level protocol realization lives in [nf_sim]. *)

type residual_agg =
  | Agg_min  (** Eq. 9 as published: each link uses the smallest residual *)
  | Agg_mean  (** ablation: the mean residual instead of the minimum *)

type params = {
  eta : float;  (** utilization-term gain of Eq. 10; paper default 5 *)
  beta : float;  (** price averaging of Eq. 11; paper default 0.5 *)
  residual_agg : residual_agg;  (** Eq. 9 aggregation; default {!Agg_min} *)
}

val default_params : params
(** [{ eta = 5.; beta = 0.5; residual_agg = Agg_min }] — Table 2. *)

type buffers
(** Preallocated per-state scratch arrays (sized for the state's problem):
    {!step} allocates nothing. Only the init functions build these. *)

type state = {
  prices : float array;  (** per link *)
  rates : float array;  (** per flow; last max-min allocation *)
  weights : float array;  (** per flow; last Eq. 7 weights *)
  mutable pool : Nf_util.Shard.t option;
      (** when set, {!step}'s per-link price update is sharded across the
          pool's domains; results are byte-identical for every job count *)
  mutable diag : Diag.t option;
      (** when set, every {!step} records a {!Diag} iteration sample
          (residual norms, water-fill stats, shard timings) and a capped
          run dumps a postmortem; [None] costs one [match] per step *)
  buffers : buffers;
  problem_gen : int;
      (** {!Problem.generation} the buffers were sized for; {!step}
          raises once the problem's topology moves on — rebuild via
          {!resize} *)
}

val seed : Problem.t -> float array * float array
(** [(rates, prices)]: the equal-weight max-min allocation (by
    {!Maxmin.solve_sparse}) and the prices seeded from its marginal
    utilities, [p_l = max_{i ∋ l} U'_g(y_g) / |L(i)|], so that a first
    weight computation is well-scaled. Every solver that starts from the
    xWI seed ({!init}, [Oracle.solve_dual], [Fluid_dgd]) calls this. *)

val init : ?pool:Nf_util.Shard.t -> Problem.t -> state
(** Initial state at the {!seed}: its prices, rates at its allocation.
    When a process-wide {!Diag.configure}d config is active (the CLI's
    [--diag]), the state auto-attaches a fresh {!Diag.t}. *)

val init_with_prices : ?pool:Nf_util.Shard.t -> Problem.t -> prices:float array -> state
(** Start from given prices (e.g. carried over across a flow-arrival event
    in dynamic scenarios); rates start at the allocation they induce
    (Eq. 7 weights at the equal-weight allocation, then the water-fill;
    when every group is a single flow the weights do not read the rates,
    and the equal-weight water-fill is skipped).
    Auto-attaches a {!Diag.t} like {!init}. *)

val resize : ?pool:Nf_util.Shard.t -> Problem.t -> state -> state
(** Warm restart after a {!Problem} delta (flow arrivals/departures):
    a fresh state for the problem's current snapshot that {e keeps the
    old state's converged per-link prices} — link ids are stable across
    flow churn, so near the old fixpoint the carried prices make
    re-convergence take a small fraction of a cold start's iterations
    (the [churn] experiment and nfbench's [serve_churn] workload
    quantify this). Rates start at the allocation the carried prices
    induce. The pool defaults to the old state's; diagnostics re-attach
    per the process-wide config.
    @raise Invalid_argument if the link count changed. *)

val set_pool : state -> Nf_util.Shard.t option -> unit
(** Attach or detach a domain pool for the sharded price update. The pool
    is borrowed: the caller owns its lifetime and must not {!Nf_util.Shard.stop}
    it while the state is stepping. *)

val set_diag : state -> Diag.t option -> unit
(** Attach or detach per-iteration diagnostics. The instance must be
    sized for the state's problem ([n_links]/[n_flows]). *)

val diag : state -> Diag.t option

val step : Problem.t -> params -> state -> unit
(** One full iteration over the sparse CSR/CSC working set: path prices
    (computed once), Eq. 7 weights (with the §6.3 multipath split; all
    strictly positive), max-min rates, Eqs. 9–11 price update. The
    kernels run directly on the state's [prices], [rates] and [weights],
    in place — steady-state stepping performs no heap allocation beyond
    the sharding dispatch. The capacities are {!Problem.caps} itself, so
    a capacity change between steps is seen by the next one. *)

type run = { iterations : int; converged : bool }

val run_to_fixpoint :
  ?tol:float -> ?max_iters:int -> Problem.t -> params -> state -> run
(** Iterate until the largest relative change of any price and rate falls
    below [tol] (default 1e-10) or [max_iters] (default 50_000) is hit.

    Every run increments [nf_xwi_runs_total] and observes
    [nf_xwi_iterations]; a converged run increments
    [nf_xwi_converged_total]. A capped run increments
    [nf_xwi_nonconverged_total], emits an [XwiNonconverged] trace event
    carrying the final residual and iteration count, and — if the state
    carries a {!Diag.t} — dumps a JSONL postmortem via
    {!Diag.dump_auto}. *)

val run_until_kkt :
  ?tol:float -> ?check_every:int -> ?max_iters:int -> Problem.t -> params -> state -> run
(** Iterate until the worst KKT residual of the current (rates, prices)
    falls below [tol] (default 1e-6), checking every [check_every]
    iterations (default 10). This is the efficient stopping rule for
    oracle-style use: per-iteration deltas can stall at numerical noise
    long after the iterate is optimal to any practical tolerance.

    A check first recomputes one flow's {!Kkt.flow_residual}: the worst
    flow of the last failed full check (its {e witness}). While that
    residual is not [<= tol] the full check cannot pass, so the run steps
    on without it; only when the witness clears (or there is none yet, or
    the run is at [max_iters]) does it run {!Kkt.check_into} on the
    state's own scratch, which allocates only its report. Iterations,
    [converged] and the final residual are exactly those of a full check
    at every check point. The counters [nf_xwi_kkt_full_checks_total] and
    [nf_xwi_kkt_witness_checks_total] count the two kinds of check. *)

(** {2 Hot-loop primitives}

    The in-unit scalar helpers of the step kernels, exposed so the test
    suite can hold them to their stdlib and {!Utility} counterparts bit
    for bit. Code outside the kernels should use those counterparts. *)

val fmax : float -> float -> float
(** [Float.max] from float comparisons only (no sign-bit C call):
    bit-identical on every non-NaN input, ±0 included, and returns a NaN
    operand when there is one. *)

val fmin : float -> float -> float
(** [Float.min], likewise. *)

val udv_fast : Utility.t -> float -> float
(** {!Utility.deriv_fast}. *)

val urate_fast : Utility.t -> float -> float
(** {!Utility.rate_from_price_fast}. *)
