(* Figures 6a-6c: convergence sensitivity to update interval, dt and alpha.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type point = { x : float; median : float; unconverged : int; }
type fig6a = point list
val run_dt :
  ?seed:int -> ?n_events:int -> ?dts:float list -> unit -> point list
val point_rows : x_scale:float -> point list -> Report.cell list list
val report_dt : point list -> Report.t
type fig6b = point list
val sweep_topology : unit -> Nf_topo.Builders.leaf_spine
val sweep_setup : seed:int -> n_events:int -> Support.semidyn_setup
val run_interval :
  ?seed:int -> ?n_events:int -> ?intervals:float list -> unit -> point list
val report_interval : point list -> Report.t
type fig6c_point = { alpha : float; fast : point; slow : point; }
type fig6c = fig6c_point list
val run_alpha :
  ?seed:int ->
  ?n_events:int -> ?alphas:float list -> unit -> fig6c_point list
val report_alpha : fig6c_point list -> Report.t
