(* Figure 8: multi-tenant fairness and resource pooling.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type series_point = {
  n_subflows : int;
  total_pooling : float;
  total_no_pooling : float;
}
type t = {
  series : series_point list;
  fairness_pooling : float array;
  fairness_no_pooling : float array;
  fairness_single : float array;
}
val run : ?seed:int -> ?iters:int -> ?max_subflows:int -> unit -> t
val report : t -> Report.t
