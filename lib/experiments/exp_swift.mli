(* Swift transport: achieved rates vs the NUM reference allocation. *)

type flow_report = {
  flow : int;
  weight : float;
  expected : float;
  measured : float;
}
type t = { flows : flow_report list; max_rel_error : float; }
val run : Ctx.t -> t
val report : t -> Report.t
