(* Figure 7: mean FCT vs load, NUMFabric vs pFabric-style SRPT.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type point = {
  load : float;
  numfabric_mean : float;
  pfabric_mean : float;
  numfabric_large : float;
  pfabric_large : float;
  srpt_weights_large : float;
}
type t = point list
val run :
  ?seed:int ->
  ?n_flows:int ->
  ?loads:float list ->
  ?n_leaves:int -> ?servers_per_leaf:int -> unit -> point list
val report : point list -> Report.t
