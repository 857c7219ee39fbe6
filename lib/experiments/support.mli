(** Shared machinery for the evaluation experiments (§6).

    The central piece is the {e semi-dynamic} harness of §6.1: persistent
    flows on random leaf–spine paths, network events that start/stop 100
    flows at a time, and per-event measurement of the time for 95% of
    flows to come within 10% of the Oracle allocation. It is reused by
    Figure 4a, the sensitivity sweeps of Figure 6, and the ablations.

    One {!semidyn_prepare} builds a scenario (events, paths, per-event
    problems and their Oracle targets); {!semidyn_run} replays it on a
    fluid scheme and {!Psupport.semidyn} on the packet simulator. Both
    judge each event with {!Nf_fluid.Convergence.sustained}. *)

type scheme_kind =
  | Scheme_numfabric of { params : Nf_num.Xwi_core.params; interval : float }
  | Scheme_dgd  (** Table 2's DGD ({!Nf_fluid.Fluid_dgd}) *)
  | Scheme_rcp of { alpha : float }  (** Table 2's RCP* ({!Nf_fluid.Fluid_rcp}) *)

val numfabric_default : scheme_kind
(** Table 2's xWI: {!Nf_num.Xwi_core.default_params} every
    {!Nf_num.Price_law.xwi_interval}. *)

val scheme_name : scheme_kind -> string

val bdp_bytes : float
(** 20 KB, the fabric's bandwidth-delay product (10 Gbps x 16 us): the
    unit of Figure 5's size bins and of Figure 7's large-flow cut. *)

type semidyn_setup = {
  seed : int;
  n_paths : int;
  flows_per_event : int;
  active_min : int;
  active_max : int;
  n_events : int;
  utility_of : int -> Nf_num.Utility.t;  (** keyed by path index *)
  criteria : Nf_fluid.Convergence.criteria;
    (** the packet driver also takes [max_time] as its epoch length:
        events are [max_time] apart *)
}

val default_semidyn : seed:int -> n_events:int -> semidyn_setup
(** The paper's §6.1 scenario: 1000 paths, 100 flows/event, 300–500
    active, proportional fairness, 10%/95% criteria. The sustain window is
    1 ms (the paper uses 5 ms to reject measurement noise; fluid rates are
    exact, and the reported time is the entry instant either way). *)

val sweep_semidyn : seed:int -> n_events:int -> semidyn_setup
(** The parameter sweeps' scenario (Figures 6b/6c and the ablations):
    {!default_semidyn} at a quarter of its flows — 250 paths, 25
    flows/event, 75–125 active — on {!sweep_leaf_spine}. *)

val sweep_leaf_spine : unit -> Nf_topo.Builders.leaf_spine
(** 4 leaves of 8 servers, 2 spines. *)

type semidyn_result = {
  times : float array;  (** per-event convergence times, seconds *)
  unconverged : int;  (** events that never met the criteria *)
}

val median_time : float array -> float
(** The median of convergence times, NaN when there are none. *)

type semidyn_scenario = {
  setup : semidyn_setup;
  topology : Nf_topo.Topology.t;
  workload : Nf_workload.Semidynamic.t;
  paths : int array array;  (** ECMP path of each of [workload.pairs] *)
  problems : Nf_num.Problem.t array;
    (** [problems.(0)] is the initial population; [problems.(k)] the
        population after event [k], its flows in the order of
        [Semidynamic.active_after workload k] *)
  targets : float array array;  (** Oracle rates for each problem *)
}

val semidyn_prepare :
  setup:semidyn_setup ->
  topology:Nf_topo.Topology.t ->
  hosts:int array ->
  unit ->
  semidyn_scenario
(** Generates the event sequence, routes every path once and solves the
    Oracle target for every population, each certified at a KKT residual
    of 1e-5 by {!Nf_num.Oracle.solve} with one carry, so each event's
    solve starts from the previous one's state (the expensive part,
    shared by all schemes of either substrate). *)

val semidyn_run : scenario:semidyn_scenario -> scheme:scheme_kind -> semidyn_result
(** Replays the event sequence for one fluid scheme under
    [scenario.setup.criteria]: the scheme's link state persists across
    events exactly as switch state would. {!Psupport.semidyn} is the
    packet substrate's counterpart. *)

val dynamic_flows :
  seed:int ->
  topology:Nf_topo.Topology.t ->
  hosts:int array ->
  size_dist:Nf_workload.Size_dist.t ->
  load:float ->
  n_flows:int ->
  utility_of:(size:float -> Nf_num.Utility.t) ->
  Nf_fluid.Dynamic.flow_spec list * float array
(** Poisson arrivals over random host pairs at the given fraction of the
    aggregate host capacity, sized from [size_dist], routed by ECMP.
    Returns the flow list (exactly [n_flows] of them) and the link
    capacity vector of [topology]. *)
