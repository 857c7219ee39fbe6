(** Per-port feedback computation at switches.

    Each outgoing link optionally runs one of these engines; the network
    layer calls [on_enqueue]/[on_dequeue] around the queue discipline and
    fires [update] every [interval] seconds (price updates are assumed
    synchronized across switches, §5 — PTP in a real deployment).

    - {!xwi}: the NUMFabric switch of Fig. 3 — tracks the minimum
      normalized residual of data packets and the serviced bytes, updates
      the price per Eqs. 9–11, and stamps [path_price]/[path_len] into
      departing packets;
    - {!dgd}: DGD per Eq. 14 — price from rate mismatch and queue
      occupancy, stamped into [path_price];
    - {!rcp}: RCP* per Eq. 15 — advertised fair rate from spare capacity
      and queue; departing packets accumulate [R^-α] in [rcp_sum]. *)

type t = {
  on_enqueue : Packet.t -> unit;
  on_dequeue : Packet.t -> unit;
  update : unit -> unit;
  interval : float;
  value : unit -> float;  (** current price (xwi/dgd) or fair rate (rcp) *)
}

val none : t
(** No-op engine (interval 1 s; [update] does nothing). *)

val xwi : capacity:float -> t
(** Updates every {!Nf_num.Price_law.xwi_interval} by
    {!Nf_num.Xwi_core.port_update} at {!Nf_num.Xwi_core.default_params}. *)

val dgd : Config.dgd -> capacity:float -> queue_bytes:(unit -> int) -> t
(** Updates every [dgd_update_interval] by {!Nf_num.Price_law.dgd_port}. *)

val rcp :
  Config.rcp ->
  capacity:float ->
  queue_bytes:(unit -> int) ->
  initial_fair_rate:float ->
  t
(** Updates every [rcp_update_interval] by {!Nf_num.Price_law.rcp_port}
    with the packet bounds {!Nf_num.Price_law.rcp_packet}; starts from
    [initial_fair_rate] clamped to [\[1e-6, 1\]]·[capacity]. *)
