(** Path computation: shortest paths by hop count and ECMP path
    enumeration/selection.

    Datacenter fabrics (leaf–spine) have many equal-length paths between a
    pair of hosts; ECMP-style per-flow hashing picks one of them, which is
    exactly how the paper's simulations place flows and sub-flows (§6.3
    "each sub-flow hashed onto a path at random"). *)

val shortest_path : Topology.t -> src:int -> dst:int -> int list option
(** A minimum-hop path (list of link ids) from [src] to [dst], or [None]
    when unreachable. Deterministic: ties are broken by smallest link id. *)

val all_shortest_paths : Topology.t -> src:int -> dst:int -> int list list
(** All minimum-hop paths, in lexicographic link-id order. The empty list
    means unreachable; [\[\[\]\]] means [src = dst]. *)

val ecmp_path : Topology.t -> src:int -> dst:int -> hash:int -> int list
(** The [hash mod n]-th of the [n] shortest paths — per-flow ECMP.
    @raise Invalid_argument when [dst] is unreachable from [src]. *)

type router
(** Memoized ECMP state over one topology: the reverse adjacency plus,
    per destination (computed on first use), hop distances and
    shortest-path counts for every node. Lets large workloads place
    hundreds of thousands of flows in O(path length) per flow instead of
    enumerating every equal-cost path per call. Not thread-safe (the
    per-destination tables are cached in a hash table). *)

val router : Topology.t -> router

val ecmp_path_fast : router -> src:int -> dst:int -> hash:int -> int list
(** Exactly [ecmp_path topo ~src ~dst ~hash] — same path, same tie-break
    and hash-index semantics — computed without path enumeration.
    @raise Invalid_argument when [dst] is unreachable from [src]. *)
