(* Figure 7: mean FCT vs load, NUMFabric vs pFabric-style SRPT. *)

type point = {
  load : float;
  numfabric_mean : float;
  pfabric_mean : float;
  numfabric_large : float;
  pfabric_large : float;
  srpt_weights_large : float;
}
type t = point list
val run : Ctx.t -> point list
val report : point list -> Report.t
