(* Swift transport: achieved rates vs the NUM reference allocation.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type flow_report = {
  flow : int;
  weight : float;
  expected : float;
  measured : float;
}
type t = { flows : flow_report list; max_rel_error : float; }
val run : ?seed:int -> ?n_flows:int -> ?duration:float -> unit -> t
val report : t -> Report.t
