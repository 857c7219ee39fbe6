(* Random-instance sweep: xWI vs dual oracle on random topologies.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type alpha_stats = {
  alpha : float;
  instances : int;
  converged : int;
  iters_p50 : float;
  iters_p95 : float;
  max_rate_error_vs_dual : float;
  dual_checks : int;
}
type t = alpha_stats list
val run :
  ?seed:int ->
  ?instances_per_alpha:int ->
  ?alphas:float list ->
  ?tol:float -> ?max_iters:int -> unit -> alpha_stats list
val report : alpha_stats list -> Report.t
