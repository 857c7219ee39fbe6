(* Queue-occupancy experiment: mean queue depth per scheme. *)

type point = {
  label : string;
  expected_pkts : float;
  mean_pkts : float;
  p95_pkts : float;
}
type t = point list
val run : unit -> point list
val report : point list -> Report.t
