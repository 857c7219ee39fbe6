(* Figure 5: FCT deviation from the exact NUM allocation, by flow-size bin. *)

module Stats = Nf_util.Stats
type bin_stats = {
  bin : float * float;
  count : int;
  box : Stats.boxplot option;
}
type scheme_result = { scheme : string; per_bin : bin_stats list; }
type workload_result = { workload : string; schemes : scheme_result list; }
type t = workload_result list
val run : Ctx.t -> workload_result list
val report : workload_result list -> Report.t
