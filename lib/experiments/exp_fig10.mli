(* Figure 10: bandwidth functions under a changing allocation.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type t = {
  series1 : Nf_util.Timeseries.t;
  series2 : Nf_util.Timeseries.t;
  expected_before : float * float;
  expected_after : float * float;
  achieved_before : float * float;
  achieved_after : float * float;
}
val run : ?alpha:float -> ?switch_at:float -> ?duration:float -> unit -> t
val report : t -> Report.t
