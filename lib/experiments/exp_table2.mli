(* Table 2: default simulator/algorithm parameters as a data table.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

type row = { scheme : string; parameters : string; }
type t = row list
val run : unit -> row list
val report : row list -> Report.t
