(* Figure 5: FCT deviation from the exact NUM allocation, by flow-size bin.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

module Dynamic = Nf_fluid.Dynamic
module Stats = Nf_util.Stats
val bdp_bytes : float
val bins : (float * float) list
type bin_stats = {
  bin : float * float;
  count : int;
  box : Stats.boxplot option;
}
type scheme_result = { scheme : string; per_bin : bin_stats list; }
type workload_result = { workload : string; schemes : scheme_result list; }
type t = workload_result list
val deviations :
  'a -> Dynamic.result -> (int, float) Hashtbl.t -> (float * float) list
val bin_up : (float * float) list -> bin_stats list
val run_workload :
  seed:int ->
  topology:Nf_topo.Topology.t ->
  hosts:int array ->
  n_flows:int -> load:float -> Nf_workload.Size_dist.t -> workload_result
val run :
  ?seed:int ->
  ?n_flows:int ->
  ?load:float ->
  ?n_leaves:int -> ?servers_per_leaf:int -> unit -> workload_result list
val report : workload_result list -> Report.t
