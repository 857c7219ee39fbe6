(* Figure 9: weighted allocations against the dual-oracle reference.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type point = {
  capacity : float;
  expected : float array;
  achieved : float array;
}
type t = point list
val run : ?alpha:float -> ?capacities:float list -> unit -> point list
val max_rel_error : point list -> float
val report : point list -> Report.t
