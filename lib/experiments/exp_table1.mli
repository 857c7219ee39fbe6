(* Table 1: the utility-function menu and resulting objectives.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type row = { objective : string; flows : string list; rates : float array; }
type t = row list
val run : unit -> row list
val report : row list -> Report.t
