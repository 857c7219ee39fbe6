(* Figure 2: bandwidth functions on one link (water-filling vs NUM). *)

type point = {
  capacity : float;
  waterfill : float array;
  num : float array;
  fair_share : float;
}
type t = point list
val run : unit -> point list
val report : point list -> Report.t
