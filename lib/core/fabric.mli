(** High-level entry point: demands on a topology + an objective, turned
    into (a) the NUM problem, (b) its optimal allocation, (c) a fluid
    NUMFabric run, or (d) a packet-level NUMFabric simulation.

    This is the API the examples and most experiments use; everything it
    does is also available à la carte from the lower layers. *)

type demand = {
  key : int;  (** caller's flow identifier (unique) *)
  src : int;  (** host node id *)
  dst : int;
  size : float;  (** bytes; [infinity] = persistent *)
  subflows : int;  (** >= 1; > 1 makes this a multipath (pooling) group *)
  pinned_paths : int list list option;
    (** explicit link-id paths (one per sub-flow); default: ECMP *)
}

val demand :
  ?size:float ->
  ?subflows:int ->
  ?paths:int list list ->
  key:int ->
  src:int ->
  dst:int ->
  unit ->
  demand

type t

val plan :
  topology:Nf_topo.Topology.t ->
  objective:Objective.t ->
  demands:demand list ->
  t
(** Resolves paths (ECMP-hashing each sub-flow as in §6.3) and builds the
    NUM problem over all directed links.
    @raise Invalid_argument on duplicate keys, unreachable pairs, or
    non-host endpoints. *)

val demands : t -> demand list

val paths_of : t -> key:int -> int array list
(** The resolved sub-flow paths of a demand. *)

val optimal : ?tol:float -> t -> (int * float) list
(** [(key, aggregate optimal rate)] from the Oracle (sum over sub-flows for
    multipath demands). *)

val optimal_rates : ?tol:float -> t -> float array
(** Per-sub-flow Oracle rates, in problem flow order. *)

val fluid : ?params:Nf_num.Xwi_core.params -> ?interval:float -> t -> Nf_fluid.Scheme.t
(** A fluid NUMFabric scheme bound to this plan's problem. *)

val simulate :
  ?config:Nf_sim.Config.t -> until:float -> t -> Nf_sim.Network.t
(** Run the packet-level NUMFabric simulation of this plan (persistent or
    finite flows per the demands; all flows start at t = 0). Multipath
    demands are simulated as independent sub-flows whose weights are
    coordinated by the utility of the aggregate — only single-path
    demands are currently supported at packet level.
    @raise Invalid_argument if a demand has [subflows > 1]. *)
