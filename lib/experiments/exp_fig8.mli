(* Figure 8: multi-tenant fairness and resource pooling. *)

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
val run : Ctx.t -> t
val report : t -> Report.t
