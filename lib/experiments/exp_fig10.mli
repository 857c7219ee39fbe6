(* Figure 10: bandwidth functions under a changing allocation. *)

type t = {
  series1 : Nf_util.Timeseries.t;
  series2 : Nf_util.Timeseries.t;
  expected_before : float * float;
  expected_after : float * float;
  achieved_before : float * float;
  achieved_after : float * float;
}
val run : unit -> t
val report : t -> Report.t
