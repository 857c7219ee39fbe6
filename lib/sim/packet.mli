(** Simulated packets.

    One record carries every header field any of the implemented protocols
    uses. NUMFabric's five additional transport-layer fields (§5) are
    [virtual_packet_len] and (via the ACK echo) [ack_ipt] for Swift, and
    [path_price], [path_len], [normalized_residual] for xWI. RCP* and
    DCTCP reuse the same echo mechanism for their own feedback
    ([rcp_sum], [ecn]). pFabric carries a [priority] (remaining flow
    size). Unused fields are simply ignored by the other protocols — in a
    real implementation these would be distinct header formats of equal
    total size. *)

type kind = Data | Ack

(** The float header fields, in one all-float record: the compiler stores
    its fields flat, so the per-hop stores ([path_price] at every dequeue,
    the rest once per packet) neither box the float nor go through the
    write barrier, as a [mutable float] field of the mixed record {!t}
    would. *)
type floats = {
  sent_at : float;
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
  flow : int;  (** flow id *)
  seq : int;  (** packet index within the flow (data), or echoed (ACK) *)
  size : int;  (** bytes on the wire *)
  kind : kind;
  mutable hop : int;  (** index of the next link in [path] *)
  path : int array;  (** link ids from source to destination *)
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

val make_data :
  flow:int -> seq:int -> size:int -> path:int array -> now:float -> t

val make_ack : data:t -> path:int array -> now:float -> t
(** An ACK echoing [data]'s accumulated fields; the caller sets
    [fl.ack_ipt] afterwards if an inter-packet time is available. *)

val is_data : t -> bool
