(* Churn: warm-started re-solves on a standing leaf-spine problem. For
   each single-flow arrival after a churn prelude, compares the iteration
   count of the warm re-solve (previous epoch's prices, via
   [Xwi_core.resize]) against a cold solve of the identical problem; the
   mean warm/cold ratio is the serve path's acceptance metric (at most
   0.10). Deterministic: no wall clock,
   all randomness seeded. *)

type event = {
  ev_index : int;
  warm_iters : int;
  cold_iters : int;
  ratio : float;  (** warm / cold, lower is better *)
  warm_kkt : float;  (** worst KKT residual of the warm solution *)
  n_flows : int;
}

type t = {
  standing : int;  (** live groups after the churn prelude *)
  prelude_events : int;
  events : event list;
  mean_ratio : float;
  total_warm : int;
  total_cold : int;
  tol : float;
}

val run :
  ?seed:int -> ?prelude:int -> ?arrivals:int -> ?target:int -> unit -> t
(** Defaults: the paper leaf-spine scenario seed 42, 300 prelude churn
    events around a standing population of 100 flows, then 10 measured
    single-flow arrivals. *)

val report : t -> Report.t
