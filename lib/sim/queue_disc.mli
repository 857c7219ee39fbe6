(** Per-port packet queues.

    Four disciplines:
    - {!fifo}: tail-drop FIFO (baseline);
    - {!ecn_fifo}: FIFO with DCTCP-style threshold marking;
    - {!stfq}: Start-Time Fair Queueing (Goyal et al.), the WFQ
      approximation the paper sketches for NUMFabric switches (§5,
      Eqs. 12–13) — packets are served in ascending virtual start time,
      with per-packet weights taken from [virtual_packet_len];
    - {!pfabric}: priority queue on the [priority] field (remaining flow
      size), dropping the {e largest}-priority packet on overflow —
      pFabric's switch behaviour.

    All queues enforce a byte limit ([limit_bytes], default 1 MB as in
    §6's switches).

    A queue holds live packets of one {!Packet.pool} ([~pool]). The
    FIFOs keep their ids in an int ring and STFQ in an int heap, so
    neither stores a pointer per packet; pFabric's short linear-scan
    list keeps the packets themselves.
    A rejected packet stays live (its owner, the network, releases it);
    the packet pFabric evicts to make room is released by the queue. *)

type t = {
  enqueue : Packet.t -> bool;
    (** [false] if the packet was dropped instead of queued *)
  dequeue_exn : unit -> Packet.t;
    (** The next packet in service order.
        @raise Invalid_argument on an empty queue. The transmit loop
        checks [packet_count () > 0] first; on {!stfq} and the FIFOs the
        pair is allocation-free. *)
  byte_length : unit -> int;
  packet_count : unit -> int;
  drops : unit -> int;  (** cumulative *)
}

val fifo : pool:Packet.pool -> ?limit_bytes:int -> unit -> t

val ecn_fifo :
  pool:Packet.pool -> ?limit_bytes:int -> mark_threshold_bytes:int -> unit -> t
(** Marks [ecn] on every packet enqueued while the queue holds more than
    [mark_threshold_bytes]. *)

val stfq : pool:Packet.pool -> ?limit_bytes:int -> unit -> t
(** Virtual time [V] is the start tag of the packet most recently begun
    service; a packet of flow [i] gets start tag
    [S = max (V, F_prev(i))] and finish tag [F = S + virtual_packet_len]
    (Eqs. 12–13; [virtual_packet_len] is already [L / w]). Packets with
    [virtual_packet_len = 0] (control) are scheduled at the current
    virtual time, i.e. ahead of queued data. *)

val pfabric : pool:Packet.pool -> ?limit_bytes:int -> unit -> t
(** pFabric keeps a small buffer; the default limit here is overridden by
    callers to ~2 BDP as in the pFabric paper. *)
