(** The packet-level network simulator: wires a {!Nf_topo.Topology.t},
    per-link queues and feedback engines, and per-flow host transports
    into a single discrete-event simulation.

    The network layer is protocol-agnostic: every directed link (host NIC
    links included — the first hop is a scheduling point like any switch
    port) runs the queue discipline and feedback engine built by the
    {!Protocol.t} the network was created with, and each flow's sender is
    driven by the hooks that protocol builds per flow. Use
    {!Protocols.get} to look a protocol up by name.

    Flows are source-routed: each flow's path is fixed at creation (ECMP
    hash of the flow id by default). ACKs travel the reverse path.

    Every measurement a run emits — queue/price/drops samples from
    {!monitor_links}, per-flow rates when [config.record_rates], flow
    completions — lands in the network's {!Record.t} ({!record}), which
    can be shared across networks or exported.

    {b Observability.} Every packet-level action additionally emits a
    structured trace event (Enqueue / Dequeue / Drop / EcnMark / PktSend /
    PktRecv / RateUpdate / PriceUpdate / FlowStart / FlowDone) through the
    network's {!Nf_util.Trace.t} sink — the process {!Nf_util.Trace.default}
    unless one is passed to {!create}. Emissions are guarded by
    {!Nf_util.Trace.on}, so a disabled sink costs one branch per event.
    Global counters (packets forwarded / dropped / delivered, ECN marks,
    flows started / completed) are kept in {!Nf_util.Metrics.global}. *)

type flow_spec = {
  fs_id : int;  (** unique flow id *)
  fs_src : int;  (** host node id *)
  fs_dst : int;
  fs_size : float;  (** bytes; [infinity] for a persistent flow *)
  fs_start : float;  (** seconds *)
  fs_path : int array option;  (** pinned path; default ECMP by id hash *)
  fs_utility : Nf_num.Utility.t option;
    (** required when {!Protocol.needs_utility} *)
}

val flow :
  ?path:int array ->
  ?utility:Nf_num.Utility.t ->
  ?size:float ->
  ?start:float ->
  id:int ->
  src:int ->
  dst:int ->
  unit ->
  flow_spec
(** [size] defaults to [infinity], [start] to 0. *)

type t

val create :
  ?config:Config.t ->
  ?record:Record.t ->
  ?trace:Nf_util.Trace.t ->
  topology:Nf_topo.Topology.t ->
  protocol:Protocol.t ->
  unit ->
  t
(** [record] lets several networks write into one shared record; by
    default each network gets a fresh one. [trace] overrides the process
    default trace sink (resolved once, at creation). *)

val sim : t -> Nf_engine.Sim.t

val protocol : t -> Protocol.t

val record : t -> Record.t

val trace : t -> Nf_util.Trace.t

val add_flow : t -> flow_spec -> unit
(** Registers the flow and schedules its start. Must be called before the
    simulation clock passes [fs_start].

    Flow ids are non-negative. The per-flow table is an array indexed
    by id (the packet path looks flows up without hashing) and sized by
    the largest id added, not by the number of flows, so ids should be
    dense from 0.
    @raise Invalid_argument on a negative or duplicate id, non-host
    endpoints, an invalid pinned path, or a spec the protocol rejects
    (e.g. a missing utility). *)

val pool : t -> Packet.pool
(** The pool every packet of this network comes from. *)

val transmit : t -> Packet.t -> unit
(** Hand a live packet of {!pool} to the network at the first link of
    its path, as a sending host does ([hop] must be 0). The network owns
    it from then on: a packet that reaches the end of its path is handed
    to its flow's receiver (data) or sender (ACK), or ignored if the flow
    is unknown, and then released to the pool, as is a packet a full
    queue drops. *)

val stop_flow_at : t -> id:int -> float -> unit
(** Schedule a (persistent) flow to stop sending at the given time.
    @raise Invalid_argument on an unknown flow id. *)

val run : t -> until:float -> unit
(** Advance the simulation (can be called repeatedly with increasing
    horizons). *)

(** {2 Measurement} *)

val measured_rate : t -> int -> float option
(** Receiver-side EWMA rate of a flow, bps; [None] before its first
    sample or for an unknown id. *)

val rate_series : t -> int -> Nf_util.Timeseries.t option
(** Present when [config.record_rates] was set. *)

val received_bytes : t -> int -> float
(** Data bytes a flow's receiver got so far; 0 for an unknown id. *)

val fct : t -> int -> float option
(** Completion time of a finite flow, if it has finished. *)

val completions : t -> (int * float) list
(** All (flow id, fct) pairs so far, completion order. *)

val queue_bytes : t -> link:int -> int

val total_drops : t -> int

val link_delivered_bytes : t -> link:int -> float

val monitor_links : t -> links:int list -> every:float -> unit
(** Start sampling the queue occupancy (bytes), feedback value (price /
    fair rate) and cumulative drop counter of the given links every
    [every] seconds into the record's Queue / Price / Drops channels;
    call before {!run}. Safe to call once per network. *)

val queue_series : t -> link:int -> Nf_util.Timeseries.t option
(** Samples recorded by {!monitor_links} ([None] if not monitored). *)

val price_series : t -> link:int -> Nf_util.Timeseries.t option

val flow_path : t -> int -> int array
(** The forward path assigned to a flow.
    @raise Invalid_argument on an unknown flow id. *)

val baseline_rtt : t -> int -> float
(** The d0 used for a flow (propagation + per-hop serialization, both
    directions).
    @raise Invalid_argument on an unknown flow id. *)
