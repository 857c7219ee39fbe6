(* Figures 4b/4c: convergence epochs, NUMFabric vs DCTCP-style.
   Experiment modules are data producers: [run] computes a typed result,
   [report] converts it to a Report.t table.
   Registered in Registry; enumerated by nf_run. *)

module Network = Nf_sim.Network
module Builders = Nf_topo.Builders
type epoch = {
  from_t : float;
  until_t : float;
  expected : float;
  within_fraction_dctcp : float;
  within_fraction_numfabric : float;
}
type t = {
  epochs : epoch list;
  series_dctcp : (float * float) list;
  series_numfabric : (float * float) list;
}
val competitors_per_epoch : int list
val epoch_len : float
val run_protocol : Nf_sim.Protocol.t -> Network.t
val run : unit -> t
val report : t -> Report.t
