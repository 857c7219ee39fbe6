(* Queue-occupancy experiment: mean queue depth per scheme.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

module Network = Nf_sim.Network
module Builders = Nf_topo.Builders
type point = {
  label : string;
  expected_pkts : float;
  mean_pkts : float;
  p95_pkts : float;
}
type t = point list
val run_case :
  ?n_flows:int ->
  label:string ->
  expected_pkts:float ->
  protocol:Nf_sim.Protocol.t -> config:Nf_sim.Config.t -> unit -> point
val run : unit -> point list
val report : point list -> Report.t
