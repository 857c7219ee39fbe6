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
(** Table 2's [eta] and [beta] ({!Price_law.eta}, {!Price_law.beta}),
    [residual_agg = Agg_min]. *)

type buffers
(** Preallocated per-state scratch arrays (sized for the state's problem):
    {!step} allocates nothing. Only {!at_seed} (and so {!init}) builds these;
    {!resize} re-sizes them in place and hands them to the state it
    returns. *)

type state = {
  prices : float array;  (** per link *)
  rates : float array;  (** per flow; last max-min allocation *)
  weights : float array;  (** per flow; last Eq. 7 weights *)
  diag : Diag.t option;
      (** attached at creation while a postmortem directory is
          {!Diag.configure}d: every {!step} then records a {!Diag}
          iteration sample (residual norms, water-fill stats) and a
          capped run dumps a postmortem; [None] costs one [match] per
          step *)
  buffers : buffers;
  problem_gen : int;
      (** {!Problem.generation} the buffers were sized for; {!step}
          raises once the problem's topology moves on — rebuild via
          {!resize} *)
  owner : int;
      (** the token under which this state owns [buffers]; a {!resize}
          hands them to a new state under another, {e consuming} this
          one *)
}

val seed : Problem.t -> float array * float array
(** [(rates, prices)]: the equal-weight max-min allocation (by
    {!Maxmin.solve_sparse}) and the prices seeded from its marginal
    utilities, [p_l = max_{i ∋ l} U'_g(y_g) / |L(i)|], so that a first
    weight computation is well-scaled. Every solver that starts from the
    xWI seed ({!at_seed}, [Fluid_dgd], the tests' dual gradient
    reference) calls this. *)

val at_seed : Problem.t -> state
(** The seed-only start: the state at the {!seed}, its prices, rates at
    its allocation, weights 1. This is xWI's standard initialization, so
    every caller that measures xWI's own convergence starts here: the
    fluid scheme ([Fluid_xwi]; Figs. 4a, 5, 6, 7, 9, 10), [exp random]'s
    iteration counts, [exp churn]'s cold baseline and lineage start, and
    [exp scale]'s fixed step budget.
    Counts no start. When a postmortem directory is {!Diag.configure}d
    (the CLI's [--diag]), the state auto-attaches a fresh {!Diag.t}. *)

val init : Problem.t -> state
(** The cold start of a certified solve: {!at_seed}, then the Newton
    polish ({!Newton_polish.solve}) of {e zero} prices. At zero prices
    no link clears the polish's 1e-3·p_max floor, so each flow is
    covered by its lowest-id link the seed's equal-weight water-fill
    saturates, priced at the flow's marginal utility; the seed's rates
    are that water-fill, so the polish runs none of its own. On success
    the state takes the polished prices, their Eq. 7 weights and their
    water-fill, and {!polished} is [true]. The polish is tried only when
    the problem is {!Newton_polish.eligible} and at most
    {!Newton_polish.max_active} links carry a flow; when it is skipped
    or fails, the state is {!at_seed}'s, bit for bit.

    On nfbench's [serve_churn] stream the polished cold start is
    certified at iteration 0 (seeds 1–10), where xWI from the seed took
    238 to 7,507 iterations; [solve_cold]'s fat tree (768 busy links)
    skips the polish. Each call increments
    [nf_xwi_cold_polished_starts_total] or
    [nf_xwi_cold_seed_starts_total], kept apart from {!resize}'s warm
    counters. *)

val resize : ?polish:bool -> Problem.t -> state -> state
(** Warm restart after a {!Problem} delta (flow arrivals/departures), or
    on any problem over the same links: a fresh state for the problem's
    current snapshot that starts from the old state's per-link prices —
    link ids are stable across flow churn — or from their Newton polish.
    This is the one way to restart xWI at given prices.

    The {e carried start} sets the old prices, weights from them (Eq. 7)
    at the equal-weight allocation, and rates at the water-fill those
    weights induce; when every group is a single flow the weights do not
    read the rates, and the equal-weight water-fill is skipped. With
    [polish] (default [true]), when every group is a single flow with a
    [Log] or [Power] utility, {!Newton_polish.solve} first solves for the
    prices at which an active set of links is exactly full, adding the
    links those prices overload and dropping the ones they price below
    zero until neither is left. If that succeeds the state starts there
    (the {e polished start}; DESIGN.md "Warm restart"): the polished
    prices, their Eq. 7 weights and their water-fill. Otherwise —
    [~polish:false], [Opaque] utilities, §6.3 multipath groups, a failed
    polish — the state is the carried start bit for bit. The carried
    prices are water-filled only for that start, or when the polish reads
    the carried rates (a flow crossing no link priced above 1e-3 of the
    highest price; about a quarter of [serve_churn]'s epochs), so a
    polished restart runs one water-fill, at most two, and no KKT sweep.
    On nfbench's [serve_churn] stream the polished start is already
    certified (0 xWI iterations at tolerance 1e-6) in all 30,000
    epochs of seeds 1–10, against a median of about 105 iterations from
    the carried start.

    Every warm {!solve} polishes (serve's epochs, [Oracle.solve]'s carry,
    the churn experiment); the fluid xWI scheme ([Fluid_xwi]) passes
    [~polish:false], since its iterations from the carried start are
    what the experiments measure.

    Each call that asks for a polish increments
    [nf_xwi_polished_starts_total] or [nf_xwi_carried_starts_total]; a
    [~polish:false] call increments neither. {!polished} tells which
    start a state got. Diagnostics re-attach per the process-wide
    config.

    [resize] {e consumes} the old state: its scratch (the link-sized
    arrays, the water-fill workspace, the polish workspace, and the
    per-flow arrays, grown with headroom when the population grows) is
    re-sized in place and handed to the new state, and so is its
    [prices] array, which becomes the new state's [prices]. A warm
    restart therefore allocates only the new state's [rates] and
    [weights] and its record. The old state's [rates] and [weights]
    stay as they were and stay readable; its [prices] are the new
    state's, so a caller that keeps a published price vector across a
    [resize] copies it first. {!step} (so also the run functions) and
    [resize] raise on the old state. Deterministic: the result depends
    only on the problem and the old state's prices, bit for bit, not on
    what its scratch served before.
    @raise Invalid_argument if the link count changed, or if the state
    was already consumed by a [resize]. *)

val polished : state -> bool
(** Whether {!init} or {!resize} started this state from the
    Newton-polished prices ([false] for the carried start, for a
    [~polish:false] restart, for {!at_seed} and for an {!init} that kept
    the seed). *)

val step : Problem.t -> params -> state -> unit
(** One full iteration over the sparse CSR/CSC working set: path prices
    (computed once), Eq. 7 weights (with the §6.3 multipath split; all
    strictly positive), max-min rates, Eqs. 9–11 price update. The
    kernels run directly on the state's [prices], [rates] and [weights],
    in place — steady-state stepping performs no heap allocation. The
    capacities are {!Problem.caps} itself, so
    a capacity change between steps is seen by the next one.
    @raise Invalid_argument if {!resize} consumed the state, or the
    problem's {!Problem.generation} moved on since the state was built. *)

(** A packet switch port's xWI state (Fig. 3), all-float, so that
    {!port_update} passes no float across the library boundary. *)
type port = {
  mutable price : float;
  mutable min_residual : float;  (** the interval's smallest residual *)
  mutable utilization : float;  (** served bits over capacity, unclamped *)
}

val port_update : params -> port -> unit
(** Eqs. 10–11, the law {!step} applies to each link: with [u] clamped to
    [\[0, 1\]], [p' = \[p + r - eta (1 - u) p\]+] ([r] dropped when not
    finite), then [price <- beta p + (1 - beta) p']. *)

type run = {
  iterations : int;
  converged : bool;
  kkt : Kkt.report;
      (** the report of the run's last full check: what {!Kkt.check}
          gives on the state's final rates and prices *)
}

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

val solve :
  ?tol:float -> ?check_every:int -> ?max_iters:int -> Problem.t -> state option -> state * run
(** [solve problem prev] is the certified solve every warm-or-cold caller
    runs (serve's [Engine], [Oracle.solve], and through it [Fabric]):
    {!resize} of [prev] when it is [Some] (which consumes it), {!init}
    (the polished cold start) when it is [None], then {!run_until_kkt}
    at {!default_params} with the given bounds and their defaults. The
    run's [kkt] is the returned state's certificate, so a caller needs
    no second {!Kkt.check}. A caller that measures xWI from its seed
    runs {!run_until_kkt} on {!at_seed} instead.
    @raise Invalid_argument as {!resize} does, before any work. *)
