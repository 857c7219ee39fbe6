(** ECMP routing: one memoized router per topology places every flow on
    one of its equal-cost (minimum-hop) paths.

    Datacenter fabrics (leaf–spine) have many equal-length paths between a
    pair of hosts; ECMP-style per-flow hashing picks one of them, which is
    exactly how the paper's simulations place flows and sub-flows (§6.3
    "each sub-flow hashed onto a path at random"). *)

type router
(** Memoized ECMP state over one topology: the reverse adjacency plus,
    per destination (computed on first use by one BFS), hop distances and
    shortest-path counts for every node. A path costs one walk of
    O(path length × out-degree), with no path enumeration. Not
    thread-safe (the per-destination tables are cached in a hash
    table). *)

val router : Topology.t -> router

val ecmp_width : router -> src:int -> dst:int -> int
(** The number [n] of shortest paths from [src] to [dst]: 1 when
    [src = dst], 0 when [dst] is unreachable. *)

val ecmp_path_fast : router -> src:int -> dst:int -> hash:int -> int list
(** The [(hash mod n)]-th of the [n = ecmp_width] shortest paths (list of
    link ids) — per-flow ECMP; negative hashes wrap to [0, n). Paths are
    numbered in depth-first order over {!Topology.out_links}, so hash 0 is
    the path that always takes the first viable next hop. [src = dst]
    gives [\[\]].
    @raise Invalid_argument when [dst] is unreachable from [src]. *)
