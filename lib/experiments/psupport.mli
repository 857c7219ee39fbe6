(** The packet substrate of the semi-dynamic harness ({!Support}): a
    {!Support.semidyn_scenario} replayed through the full [nf_sim] packet
    simulator, with receiver-side EWMA rate measurement (80 µs time
    constant) judged against the scenario's Oracle targets by the fluid
    runs' rule, {!Nf_fluid.Convergence.sustained}.

    Determinism: the simulated network is built afresh per call and
    everything random lives in the scenario (derived from its
    [setup.seed]), so [semidyn] is safe to run on {!Runner} worker
    domains and its result depends only on its arguments (callers
    derive [seed] from {!Ctx.rng_seed}). *)

val leaf_spine : unit -> Nf_topo.Builders.leaf_spine
(** The fabric {!default_setup} is sized for: 2 leaves of 4 servers, 2
    spines. *)

val default_setup : seed:int -> n_events:int -> Support.semidyn_setup
(** A scaled-down instance sized for packet-level simulation: 40 paths,
    6 flows/event, 12–20 active, proportional fairness, 95% of flows
    within 10%, held for 0.5 ms, 4 ms between events ([max_time]). *)

val semidyn :
  config:Nf_sim.Config.t ->
  ?protocol:Nf_sim.Protocol.t ->
  Support.semidyn_scenario ->
  Support.semidyn_result
(** Runs the given protocol (default NUMFabric) through the scenario's
    event sequence. Event [k] happens at [k * max_time], and each path's
    activation is one flow, with ids in activation order. The first
    epoch lets the initial population settle; in each event epoch the
    receivers' rates are sampled every 20 µs, and a converged event
    reports the entry sample's time since the event minus the EWMA
    filter's 90% rise time (§6.1), floored at 0. The targets are the NUM
    optima for [setup.utility_of], so schemes that do not solve NUM
    (DCTCP, pFabric) simply report how far they end up from it. *)
