(** DGD's and RCP*'s link laws (Eqs. 14 and 15), and the one definition
    of each Table 2 constant.

    The fluid schemes call {!dgd} and {!rcp} once per link per round;
    the packet engines keep one {!port} per switch port and call
    {!dgd_port} or {!rcp_port} once per update. xWI's law (Eqs. 10–11)
    is {!Xwi_core.port_update}'s: it stays in the unit of the solver
    loop that runs it on every step. *)

(** DGD's settings (§6, Eq. 14). *)
type dgd = {
  dgd_update_interval : float;  (** seconds *)
  dgd_gain_util : float;  (** [a], relative to [dgd_price_scale / C] *)
  dgd_gain_queue : float;  (** [b], relative to [dgd_price_scale / BDP] *)
  dgd_price_scale : float;  (** of the order of the marginal utility *)
}

(** RCP*'s settings (§6, Eqs. 15–16). *)
type rcp = {
  rcp_update_interval : float;  (** [T], seconds *)
  rcp_gain_spare : float;  (** [a] *)
  rcp_gain_queue : float;  (** [b] *)
  rcp_mean_rtt : float;  (** [d], seconds *)
  rcp_alpha : float;  (** fairness exponent α of Eq. 16 *)
}

(** {1 Table 2} *)

val eta : float
(** 5, Eq. 10's utilization gain. *)

val beta : float
(** 0.5, Eq. 11's price averaging. *)

val xwi_interval : float
(** 30 µs, xWI's priceUpdateInterval. *)

val dgd_table2 : dgd
(** 16 µs, gains 0.3 and 0.15, and the packet price scale 4e-10 (the
    marginal utility of a proportional-fairness flow at 2.5 Gbps). *)

val rcp_table2 : rcp
(** 16 µs, gains 0.4 and 0.2, mean RTT 16 µs, α 1. *)

(** {1 Laws} *)

(** Eq. 15's clamps: the per-update factor, and the rate in multiples of
    the capacity. Idle links advertise above capacity, so that their
    [R^-α] term fades from Eq. 16 at the fixed point. *)
type rcp_bounds = { factor_lo : float; factor_hi : float; rate_lo : float; rate_hi : float }

val rcp_packet : rcp_bounds
(** Packet switches: factor in [\[0.5, 1.1\]], rate in [\[1e-4, 100\]]·C.
    The low top damps R's growth: an idle link that inflated its rate at
    once would invite a line-rate blast from every sender when flows
    return, then crash to the floor and limit-cycle. *)

val rcp_fluid : rcp_bounds
(** Fluid links: factor in [\[0.5, 2\]], rate in [\[1e-6, 100\]]·C. *)

val dgd : dgd -> cap:float -> price:float -> rate:float -> queue:float -> float
(** Eq. 14, [\[p + a (y - C) + b q\]+], for a link of capacity [cap]
    (bits/s) that served [rate] (bits/s) with [queue] bytes queued. *)

val rcp :
  rcp_bounds -> rcp -> cap:float -> fair_rate:float -> rate:float -> queue:float -> float
(** Eq. 15, [R (1 + (T/d)(a (C - y) - b q/d) / C)], with the factor and
    then the rate clamped to the bounds. *)

(** A packet port's law inputs and output, all-float, so that the calls
    below pass no float across the library boundary. *)
type port = {
  cap : float;
  mutable price : float;  (** DGD's price, or RCP*'s fair rate *)
  mutable rate : float;  (** bits/s served over the last interval *)
  mutable queue : float;  (** bytes queued *)
}

val dgd_port : dgd -> port -> unit
(** {!dgd} on the port's fields, into [price]. *)

val rcp_port : rcp_bounds -> rcp -> port -> unit
(** {!rcp} on the port's fields, into [price]. *)
