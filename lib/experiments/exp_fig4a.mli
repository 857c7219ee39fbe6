(* Figure 4a: xWI convergence time vs DGD, fluid and packet-level. *)

type result = { scheme : string; times : float array; unconverged : int; }
type t = {
  results : result list;
  speedup_median : float;
  speedup_p95 : float;
}
val run : Ctx.t -> t
type packet_t = result list
val run_packet : Ctx.t -> packet_t
val report : t -> Report.t
val report_packet : packet_t -> Report.t
