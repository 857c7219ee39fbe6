(* Random-instance sweep: xWI vs the exact solve on random topologies. *)

type alpha_stats = {
  alpha : float;
  instances : int;
  converged : int;
  iters_p50 : float;
  iters_p95 : float;
  max_rate_error_vs_exact : float;
  exact_checks : int;
}
type t = alpha_stats list
val run : Ctx.t -> alpha_stats list
val report : alpha_stats list -> Report.t
