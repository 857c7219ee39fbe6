(* Figure 4a: xWI convergence time vs DGD, fluid and packet-level.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type result = { scheme : string; times : float array; unconverged : int; }
type t = {
  results : result list;
  speedup_median : float;
  speedup_p95 : float;
}
val run : ?seed:int -> ?n_events:int -> ?scale:float -> unit -> t
type packet_t = result list
val run_packet : ?seed:int -> ?n_events:int -> unit -> result list
val cdf_columns : string list
val cdf_row : result -> Report.cell list
val report : t -> Report.t
val report_packet : packet_t -> Report.t
