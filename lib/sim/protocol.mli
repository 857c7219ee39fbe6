(** The pluggable transport-protocol seam.

    A protocol packages everything the simulator needs to run one
    transport end to end:

    - the {e link layer}: a queue-discipline + feedback-engine factory for
      every switch port, and the synchronized update interval of the
      engine (if any);
    - the {e host layer}: a per-flow factory returning the hooks the
      generic reliable-transport machinery in {!Host} drives — header
      stamping on send, state updates on ACK, and the send discipline
      (window- or rate-paced).

    Protocols are first-class modules looked up by name in
    {!Protocols}' static list; {!Network} knows nothing about any
    particular protocol, so adding one is a new module plus one entry in
    {!Protocols.builtins}. *)

(** What a protocol's flow can query from the generic sender machinery. *)
type flow_env = {
  env_sim : Nf_engine.Sim.t;
      (** the clock ({!Nf_engine.Sim.now}, read without boxing a float) *)
  env_cfg : Config.t;
  env_size : float;  (** bytes; [infinity] = persistent *)
  env_d0 : float;  (** baseline RTT *)
  env_line_rate : float;  (** min capacity along the path, bps *)
  env_path_hops : int;  (** forward-path hop count *)
  env_remaining : unit -> float;  (** un-acked bytes (>= one MSS) *)
}

(** A float the protocol owns and writes, and the generic machinery
    reads: the current window (bytes) of a {!Windowed} flow, or the
    current rate (bps) of a {!Paced} one. A protocol keeps the cell it
    put into its {!discipline} and stores into it whenever its control
    law moves the value (Swift and DCTCP per ACK, DGD and RCP* per ACK
    that carries feedback; pFabric never, its window is fixed). {!Host}
    reads the field afresh on every send attempt, so a store takes
    effect at the next send. The record is all-float, so a store is one
    unboxed write and a read calls no closure. *)
type cell = { mutable value : float }

val cell : float -> cell

(** How the generic machinery releases packets for this flow. *)
type discipline =
  | Windowed of cell
      (** send while in-flight bytes < the cell's window (bytes) *)
  | Paced of { rate : cell; cap : float }
      (** pace packets at the cell's rate (bps), never exceeding [cap]
          outstanding bytes *)

(** Per-flow protocol hooks, closed over the protocol's own state. *)
type flow_handle = {
  fh_discipline : discipline;
  fh_on_send : Packet.t -> unit;
      (** stamp protocol header fields into a departing data packet *)
  fh_on_ack : Packet.t -> unit;
      (** digest feedback from an ACK; the generic layer then resumes
          sending per the discipline — do not send from here *)
  fh_rto : float;  (** retransmission / progress timeout, seconds *)
}

(** One switch port's worth of protocol machinery. *)
type link_handle = {
  lh_qdisc : Queue_disc.t;
  lh_engine : Price_engine.t;
}

module type PROTOCOL = sig
  val name : string
  (** Registry key, e.g. "numfabric", "dctcp". *)

  val description : string

  val needs_utility : bool
  (** Whether {!Network.add_flow} must be given a per-flow utility. *)

  val update_interval : Config.t -> float option
  (** Interval of the synchronized periodic engine update on every link
      (§5: PTP); [None] if the protocol has no feedback engine. *)

  val make_link :
    Config.t -> pool:Packet.pool -> capacity:float -> link_handle
  (** One port's queue and engine; the queue holds packets of the
      network's [pool] (see {!Queue_disc}). *)

  val make_flow : flow_env -> utility:Nf_num.Utility.t option -> flow_handle
  (** @raise Invalid_argument if the flow spec does not satisfy the
      protocol's requirements (missing utility, infinite size where a
      finite one is needed, ...). *)
end

type t = (module PROTOCOL)

val name : t -> string

val description : t -> string

val needs_utility : t -> bool

val default_rto : d0:float -> float
(** The coarse safety RTO shared by the loss-rare protocols:
    [max (30 * d0) 1 ms]. *)
