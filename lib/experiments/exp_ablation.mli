(* Ablation: eta/beta parameter sweeps for the xWI price update. *)

type variant = { label : string; median : float; unconverged : int; }
type t = {
  beta_sweep : variant list;
  eta_sweep : variant list;
  residual_agg : variant list;
  burst_sweep : variant list;
  weight_quant : variant list;
}
val run : Ctx.t -> t
val report : t -> Report.t
