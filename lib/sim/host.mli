(** End-host transport machinery, protocol-agnostic.

    One {!sender} and one {!receiver} exist per flow. The network layer
    owns packet forwarding and calls {!handle_data} / {!handle_ack} when
    packets reach their destination host.

    This module implements everything the transports share — sequencing,
    selective-repeat reliability with a progress timeout, in-flight
    accounting, and the two send loops (window-clocked and rate-paced).
    Everything protocol-specific (sender state, header stamping, ACK
    processing, the choice of loop) comes from the
    {!Protocol.flow_handle} built by the flow's protocol module; see
    [Proto_swift], [Proto_dgd], [Proto_rcp], [Proto_dctcp] and
    [Proto_pfabric] for the implementations.

    All flows use fixed 1500-byte data packets; a flow of [size] bytes is
    [ceil (size / 1500)] packets. Loss is rare for every protocol except
    pFabric, whose priority-drop queues rely on the retransmission
    timer. *)

type ctx = {
  sim : Nf_engine.Sim.t;  (** the clock is read from here ({!Nf_engine.Sim.now}) *)
  after : float -> (unit -> unit) -> unit;  (** schedule relative event *)
  pool : Packet.pool;
      (** where data packets and ACKs come from; the network releases
          them *)
  transmit : Packet.t -> unit;  (** inject a packet at its first link *)
  complete : int -> unit;  (** called once when a finite flow finishes *)
  cfg : Config.t;
}

type sender

type receiver

val make_sender :
  ctx ->
  flow:int ->
  path:int array ->
  size:float ->
  d0:float ->
  line_rate:float ->
  protocol:Protocol.t ->
  utility:Nf_num.Utility.t option ->
  sender
(** [size] in bytes ([infinity] for a persistent flow); [d0] the baseline
    RTT (§4.1); [line_rate] the minimum capacity along the path. The
    protocol module validates [utility] and the flow spec.
    @raise Invalid_argument on an empty path, a non-positive line rate,
    or a spec the protocol rejects. *)

val make_receiver :
  ctx ->
  flow:int ->
  rpath:int array ->
  sink:(time:float -> float -> unit) option ->
  receiver
(** [sink], when given, receives every receiver-side EWMA rate sample
    (typically the flow's {!Record} rate channel). *)

val start : ctx -> sender -> unit
(** Begin transmission (Swift: the initial 3-packet burst). *)

val stop : sender -> unit
(** Stop a (typically persistent) flow: no further data is sent. *)

val handle_ack : ctx -> sender -> Packet.t -> unit
(** The ACK belongs to the caller, which releases it after this
    returns. *)

val handle_data : ctx -> receiver -> Packet.t -> unit
(** Updates the receiver's inter-packet-time measurement and rate filter,
    then reflects an ACK from [ctx.pool]. The data packet belongs to the
    caller, which releases it after this returns. *)

val completed : sender -> bool

val stopped : sender -> bool

val acked_bytes : sender -> float
(** One MSS per distinct seq acknowledged so far: a seq resent after an
    RTO counts once, however many of its copies are ACKed. *)

val received_bytes : receiver -> float

val measured_rate : receiver -> float option
(** Receiver-side EWMA rate estimate (tau = [cfg.rate_measure_tau]). *)
