(* Table 1: the utility-function menu and resulting objectives.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

module Utility = Nf_num.Utility
module Problem = Nf_num.Problem
module Oracle = Nf_num.Oracle
module Bf = Nf_num.Bandwidth_function
val gbps : float -> float
type row = { objective : string; flows : string list; rates : float array; }
type t = row list
val parking_groups : (int -> Utility.t) -> Problem.group_spec list
val parking_caps : float array
val solve : float array -> Problem.group_spec list -> float array
val run : unit -> row list
val report : row list -> Report.t
