(** Flow-level dynamic workload driver.

    Runs a fluid {!Scheme.t} over a population of finite-size flows that
    arrive over time and depart when their bytes are delivered — the
    machinery behind the paper's dynamic-workload experiments (Figures 5
    and 7). Time advances in steps of the scheme's update interval; flow
    arrivals and departures rebuild the {!Nf_num.Problem.t} (link state
    persists inside the scheme across rebinds, as it does in real
    switches). Before every step the driver reports remaining flow sizes
    through [observe_remaining], so size-aware allocators (SRPT/pFabric)
    work unchanged.

    A companion {!run_ideal} driver computes completions under the
    instantaneous-Oracle policy of §6.1: every flow receives its exact NUM
    rate, recomputed at every arrival/departure. *)

type flow_spec = {
  key : int;  (** caller's identifier, echoed in completions *)
  arrival : float;  (** seconds *)
  size : float;  (** bytes *)
  path : int array;  (** link ids *)
  utility : Nf_num.Utility.t;
    (** built by the caller, typically from [size] for FCT objectives *)
}

type completion = {
  c_key : int;
  c_arrival : float;
  c_size : float;
  c_finish : float;  (** seconds; > arrival *)
}

val fct : completion -> float

val achieved_rate : completion -> float
(** [size * 8 / fct] — the paper's flow rate definition for dynamic
    workloads (§6.1), in bits per second. *)

type result = {
  completions : completion list;  (** in completion order *)
  unfinished : int;  (** flows still active (or never arrived) at the end *)
  end_time : float;
}

val run :
  caps:float array ->
  make_scheme:(Nf_num.Problem.t -> Scheme.t) ->
  flows:flow_spec list ->
  ?reutility:(flow_spec -> remaining:float -> Nf_num.Utility.t) ->
  ?until:float ->
  unit ->
  result
(** Simulate until all flows complete or [until] (default: a safety cap of
    100 s simulated). [flows] need not be sorted. The scheme is created on
    the first arrival and rebound on every population change.

    When [reutility] is given, every flow's utility is re-derived from its
    remaining bytes before {e each} iteration (the problem is rebuilt and
    the scheme rebound every round) — this is how remaining-size (SRPT) or
    deadline-slack objectives are driven at the fluid level (§2). *)

val run_ideal : caps:float array -> flows:flow_spec list -> unit -> result
(** Event-driven Oracle run: rates are the exact NUM allocation,
    recomputed at every arrival and departure by {!Nf_num.Oracle.solve}
    with one carry, so each solve starts from the previous one's state;
    between events every flow drains at its optimal rate. Every
    per-event solve certifies a KKT residual of 1e-5.
    @raise Nf_num.Oracle.Did_not_converge if a solve does not certify. *)
