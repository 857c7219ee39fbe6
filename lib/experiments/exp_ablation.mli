(* Ablation: eta/beta parameter sweeps for the xWI price update.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type variant = { label : string; median : float; unconverged : int; }
type t = {
  beta_sweep : variant list;
  eta_sweep : variant list;
  residual_agg : variant list;
  burst_sweep : variant list;
  weight_quant : variant list;
}
val run : ?seed:int -> ?n_events:int -> unit -> t
val report : t -> Report.t
