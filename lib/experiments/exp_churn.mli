(* Churn: warm-started re-solves on a standing leaf-spine problem. For
   each single-flow arrival after a churn prelude, compares the iteration
   count of the warm re-solve ([Xwi_core.solve] of the previous epoch's
   state: its prices or their Newton polish, then xWI) against a cold
   solve of the identical problem (xWI from its seed,
   [Xwi_core.at_seed]); the mean warm/cold ratio is the serve
   path's acceptance metric (at most 0.10). Deterministic: no wall
   clock, all randomness seeded. *)

type event = {
  ev_index : int;
  warm_iters : int;
  cold_iters : int;
  ratio : float;  (** warm / cold, lower is better *)
  warm_kkt : float;  (** worst KKT residual of the warm solution *)
  polished : bool;
      (** {!Nf_num.Xwi_core.polished}: the warm re-solve started from the
          Newton-polished prices, not the carried ones *)
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

val run : Ctx.t -> t
(** At full scale: the paper leaf-spine scenario, 300 prelude churn
    events around a standing population of 100 flows, then 10 measured
    single-flow arrivals. *)

val report : t -> Report.t
