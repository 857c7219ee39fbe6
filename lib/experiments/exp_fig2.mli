(* Figure 2: bandwidth functions on one link (water-filling vs NUM).
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type point = {
  capacity : float;
  waterfill : float array;
  num : float array;
  fair_share : float;
}
type t = point list
val run : ?alpha:float -> unit -> point list
val report : point list -> Report.t
