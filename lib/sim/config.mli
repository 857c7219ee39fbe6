(** Packet-simulator configuration: Table 2's defaults plus the knobs the
    sensitivity analysis (§6.2) sweeps.

    Fabric-wide knobs (switch buffers, measurement) live at the top level;
    everything protocol-specific lives in that protocol's own section, so
    a new protocol brings its own record instead of widening a flat
    config shared by every layer. *)

(** Swift + xWI, the NUMFabric transport (§4.1, §4.2 / Table 2). *)
type swift = {
  ewma_time : float;  (** rate-estimator EWMA time constant; 20 µs *)
  dt_slack : float;  (** window slack over the BDP; 6 µs *)
  init_burst : int;  (** packets sent at flow start; 3 *)
  price_update_interval : float;  (** xWI; 30 µs *)
  eta : float;  (** 5 *)
  beta : float;  (** 0.5 *)
  weight_quant_base : float option;
      (** §8's "small set of queues with different weights": when set,
          Swift weights are rounded to the nearest power of this base
          before being carried in headers (e.g. 2.0 models switches that
          support only power-of-two weight classes); [None] = exact *)
  srpt_eps : float;
      (** ε of the remaining-size (SRPT) utility used by the
          [numfabric-srpt] protocol variant (§2) *)
}

(** DGD (§6, Eq. 14). *)
type dgd = {
  dgd_update_interval : float;  (** 16 µs *)
  dgd_gain_util : float;
  dgd_gain_queue : float;
  dgd_price_scale : float;
      (** normalization of the dimensionless gains; should be of the order
          of the marginal utility at the expected operating point *)
}

(** RCP* (§6, Eqs. 15–16). *)
type rcp = {
  rcp_update_interval : float;  (** 16 µs *)
  rcp_gain_spare : float;
  rcp_gain_queue : float;
  rcp_mean_rtt : float;
  rcp_alpha : float;  (** fairness exponent α of Eq. 16 *)
}

type dctcp = {
  dctcp_mark_threshold : int;  (** bytes; K *)
  dctcp_gain : float;  (** g; 1/16 *)
}

type pfabric = {
  pfabric_buffer_bytes : int;
  pfabric_rto : float;
}

type t = {
  (* Fabric-wide *)
  buffer_bytes : int;  (** per-port buffer; 1 MB (§6) *)
  rate_measure_tau : float;  (** receiver rate EWMA; 80 µs (§6.1) *)
  record_rates : bool;  (** keep per-flow receiver rate time series *)
  (* Per-protocol *)
  swift : swift;
  dgd : dgd;
  rcp : rcp;
  dctcp : dctcp;
  pfabric : pfabric;
}

val default : t
(** Table 2 values; DCTCP marking threshold 30 KB, pFabric buffer 36 KB
    with RTO 3 * 16 µs, [dgd_price_scale] 4e-10 (the marginal utility of a
    proportional-fairness flow at 2.5 Gbps). *)

val default_swift : swift

val default_dgd : dgd
