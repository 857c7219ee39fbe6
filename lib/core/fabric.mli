(** High-level entry point: demands on a topology + an objective, turned
    into (a) the NUM problem, (b) its optimal allocation, or (c) a
    packet-level NUMFabric simulation.

    This is the API of the examples and [nf_run solve]; the experiments
    use the lower layers directly, and everything it does is available
    there à la carte. *)

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

val optimal : t -> (int * float) list
(** [(key, aggregate optimal rate)] from the Oracle (sum over sub-flows for
    multipath demands). *)

val simulate : until:float -> t -> Nf_sim.Network.t
(** Run the packet-level NUMFabric simulation of this plan (persistent or
    finite flows per the demands; all flows start at t = 0). Multipath
    demands are simulated as independent sub-flows whose weights are
    coordinated by the utility of the aggregate — only single-path
    demands are currently supported at packet level.
    @raise Invalid_argument if a demand has [subflows > 1]. *)
