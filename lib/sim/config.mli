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
  weight_quant_base : float option;
      (** §8's "small set of queues with different weights": when set,
          Swift weights are rounded to the nearest power of this base
          before being carried in headers (e.g. 2.0 models switches that
          support only power-of-two weight classes); [None] = exact *)
  srpt_eps : float;
      (** ε of the remaining-size (SRPT) utility used by the
          [numfabric-srpt] protocol variant (§2) *)
}

type dgd = Nf_num.Price_law.dgd
(** DGD (§6, Eq. 14); defaults {!Nf_num.Price_law.dgd_table2}. *)

type rcp = Nf_num.Price_law.rcp
(** RCP* (§6, Eqs. 15–16); defaults {!Nf_num.Price_law.rcp_table2}. *)

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
(** Table 2 values ({!Nf_num.Price_law}); DCTCP marking threshold 30 KB,
    pFabric buffer 36 KB with RTO 3 * 16 µs. *)

val default_swift : swift

