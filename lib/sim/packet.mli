(** Simulated packets.

    One record carries every header field any of the implemented protocols
    uses. NUMFabric's five additional transport-layer fields (§5) are
    [virtual_packet_len] and (via the ACK echo) [ack_ipt] for Swift, and
    [path_price], [path_len], [normalized_residual] for xWI. RCP* and
    DCTCP reuse the same echo mechanism for their own feedback
    ([rcp_sum], [ecn]). pFabric carries a [priority] (remaining flow
    size). Unused fields are simply ignored by the other protocols — in a
    real implementation these would be distinct header formats of equal
    total size.

    {b Pooled packets.} A network's packets come from its {!pool}: each
    pooled packet has a permanent int {!field-id}, and the containers that
    hold packets in flight (wire rings, queue disciplines) store that id,
    not the pointer. A pooled record is old after its first minor
    collection and is reused in place, so a steady-state hop allocates
    nothing, and storing an int into an int array runs no write barrier.
    The fields are mutable because {!alloc_data} / {!alloc_ack} rewrite
    every one of them. *)

type kind = Data | Ack

(** The float header fields, in one all-float record: the compiler stores
    its fields flat, so the per-hop stores ([path_price] at every dequeue,
    the rest once per packet) neither box the float nor go through the
    write barrier, as a [mutable float] field of the mixed record {!t}
    would. *)
type floats = {
  mutable sent_at : float;
  (* --- NUMFabric data-packet fields (§5) --- *)
  mutable virtual_packet_len : float;  (** L / w; 0 for control packets *)
  mutable path_price : float;  (** accumulated at each dequeue *)
  mutable normalized_residual : float;  (** (U'(R) - pathPrice) / pathLen *)
  (* --- other protocols --- *)
  mutable rcp_sum : float;  (** Σ R_l^-α accumulated by RCP* switches *)
  mutable priority : float;  (** pFabric rank: remaining flow bytes *)
  (* --- ACK echo fields --- *)
  mutable ack_ipt : float;  (** receiver inter-packet time; nan if unknown *)
  mutable ack_path_price : float;
  mutable ack_rcp_sum : float;
}

type t = {
  id : int;  (** pool id, permanent *)
  mutable flow : int;  (** flow id *)
  mutable seq : int;
      (** packet index within the flow (data), or echoed (ACK) *)
  mutable size : int;  (** bytes on the wire *)
  mutable kind : kind;
  mutable hop : int;  (** index of the next link in [path] *)
  mutable path : int array;  (** link ids from source to destination *)
  mutable path_len : int;
      (** NUMFabric: hop count accumulated with [fl.path_price] *)
  mutable ecn : bool;  (** congestion-experienced mark (DCTCP) *)
  mutable ack_path_len : int;  (** ACK echo of [path_len] *)
  mutable ack_ecn : bool;  (** ACK echo of [ecn] *)
  fl : floats;  (** the float header fields *)
}

val data_size : int
(** 1500 bytes. *)

val ack_size : int
(** 40 bytes. *)

(** {2 The pool} *)

type pool
(** The packets of one network. Not shared between domains: each network
    owns its pool. *)

val create_pool : unit -> pool

val alloc_data :
  pool -> flow:int -> seq:int -> size:int -> path:int array -> now:float -> t
(** A free packet of the pool (the pool grows when none is free), every
    field rewritten as a fresh data packet's. *)

val alloc_ack : pool -> data:t -> path:int array -> now:float -> t
(** A free packet rewritten as an ACK echoing [data]'s accumulated
    fields; the caller sets [fl.ack_ipt] afterwards if an inter-packet
    time is available. *)

val release : pool -> t -> unit
(** Return a packet to its pool. The network releases a packet when it
    is dropped and after its end host's handler returns; pFabric's queue
    releases the packet it evicts. The released record is poisoned
    ([flow], [seq] and [size] -1, [hop] past any path), so a stray use
    fails loudly, and it is reused by a later {!alloc_data} /
    {!alloc_ack}: nothing may hold it past its release.
    @raise Invalid_argument if the packet is not live in this pool (a
    second release of the same packet, or a packet of another pool). *)

val get : pool -> int -> t
(** The live packet with this id.
    @raise Invalid_argument if the id is not live. *)

val live : pool -> int
(** Packets allocated and not yet released. *)

val is_data : t -> bool
