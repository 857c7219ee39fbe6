(** Canonical topologies used by the paper's evaluation and by the tests.

    All links are full-duplex (built as link pairs) and host/fabric
    capacities and delays are parameters, with defaults matching §6:
    10 Gbps server links, 40 Gbps fabric links, and per-hop delays chosen
    so that the 4-hop leaf–spine fabric RTT is 16 µs. *)

type leaf_spine = {
  topo : Topology.t;
  servers : int array;  (** host node ids, leaf-major order *)
  leaves : int array;  (** leaf switch node ids *)
  spines : int array;  (** spine switch node ids *)
}

val leaf_spine :
  ?server_capacity:float ->
  ?fabric_capacity:float ->
  ?link_delay:float ->
  n_leaves:int ->
  n_spines:int ->
  servers_per_leaf:int ->
  unit ->
  leaf_spine
(** The paper's topology: [n_leaves] leaf switches each connecting
    [servers_per_leaf] servers at [server_capacity] (default 10 Gbps), and
    [n_spines] spine switches connected to every leaf at [fabric_capacity]
    (default 40 Gbps). [link_delay] defaults to 1 µs per hop. *)

val paper_leaf_spine : unit -> leaf_spine
(** §6.1's instance: 128 servers, 8 leaves, 4 spines, 10/40 Gbps. *)

val leaf_spine_large : unit -> leaf_spine
(** Scale-study instance: 1024 servers, 32 leaves, 16 spines,
    10/40 Gbps. *)

type fat_tree = {
  ft_topo : Topology.t;
  ft_servers : int array;
  ft_edges : int array;  (** edge switch node ids, pod-major *)
  ft_aggs : int array;  (** aggregation switch node ids, pod-major *)
  ft_cores : int array;
}

val fat_tree : ?link_capacity:float -> ?link_delay:float -> k:int -> unit -> fat_tree
(** A k-ary fat tree (Al-Fares et al.): k pods, each with k/2 edge and k/2
    aggregation switches, (k/2)^2 core switches, and (k/2)^2 servers per
    pod — k^3/4 servers total, full bisection with uniform link speeds
    (default 10 Gbps). [k] must be even and >= 2. *)

val fat_tree_k16 : unit -> fat_tree
(** 1024 servers, 64 cores, 128 edge + 128 aggregation switches: the
    scale-study fabric for 100k+ flow workloads. *)

type single_bottleneck = {
  sb_topo : Topology.t;
  senders : int array;
  receiver : int;
  bottleneck : int;  (** link id of the switch -> receiver link *)
}

val single_bottleneck :
  ?access_capacity:float ->
  ?capacity:float ->
  ?delay:float ->
  n_senders:int ->
  unit ->
  single_bottleneck
(** [n_senders] hosts -> one switch -> one receiver. The switch->receiver
    link (capacity [capacity], default 10 Gbps) is the only bottleneck:
    sender access links default to 4x that capacity. *)

type three_link_pooling = {
  tl_topo : Topology.t;
  src1 : int;
  src2 : int;
  sink : int;
  top : int;  (** link id, capacity 5 Gbps: only flow 1's direct path *)
  bottom : int;  (** link id, capacity 3 Gbps: only flow 2's direct path *)
  middle : int;  (** link id, variable capacity X: shared *)
  tl_paths1 : int list list;  (** flow 1's two sub-flow paths *)
  tl_paths2 : int list list;  (** flow 2's two sub-flow paths *)
}

val three_link_pooling : ?middle_capacity:float -> unit -> three_link_pooling
(** Figure 10's topology: two multipath flows into a common sink; flow 1
    owns a 5 Gbps path, flow 2 a 3 Gbps path, and both share a middle link
    of capacity [middle_capacity] (default 5 Gbps). *)
