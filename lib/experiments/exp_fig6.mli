(* Figures 6a-6c: convergence sensitivity to update interval, dt and alpha. *)

type point = { x : float; median : float; unconverged : int; }
type fig6a = point list
val run_dt : Ctx.t -> point list
val report_dt : point list -> Report.t
type fig6b = point list
val run_interval : Ctx.t -> point list
val report_interval : point list -> Report.t
type fig6c_point = { alpha : float; fast : point; slow : point; }
type fig6c = fig6c_point list
val run_alpha : Ctx.t -> fig6c_point list
val report_alpha : fig6c_point list -> Report.t
