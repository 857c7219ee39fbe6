(* Figure 7: mean FCT vs load, NUMFabric vs pFabric-style SRPT.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

module Dynamic = Nf_fluid.Dynamic
module Topology = Nf_topo.Topology
type point = {
  load : float;
  numfabric_mean : float;
  pfabric_mean : float;
  numfabric_large : float;
  pfabric_large : float;
  srpt_weights_large : float;
}
type t = point list
val bdp_bytes : float
val ideal_fct : Topology.t -> int array -> float -> float
val normalized_fcts :
  Topology.t ->
  Dynamic.flow_spec list -> Dynamic.result -> (float * float) list
val mean_of : ('a -> float option) -> 'a list -> float
val run :
  ?seed:int ->
  ?n_flows:int ->
  ?loads:float list ->
  ?n_leaves:int -> ?servers_per_leaf:int -> unit -> point list
val report : point list -> Report.t
