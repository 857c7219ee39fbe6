(* Figure 9: weighted allocations against the dual-oracle reference. *)

type point = {
  capacity : float;
  expected : float array;
  achieved : float array;
}
type t = point list
val run : unit -> point list
val report : point list -> Report.t
