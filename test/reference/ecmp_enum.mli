(** The enumerating ECMP path search, kept as the test oracle for
    {!Nf_topo.Routing}'s memoized router: it lists every minimum-hop path
    explicitly instead of counting them, so the router's path choice can
    be checked against an independent computation. *)

val all_shortest_paths : Nf_topo.Topology.t -> src:int -> dst:int -> int list list
(** All minimum-hop paths (lists of link ids), enumerated depth-first
    with next hops in {!Nf_topo.Topology.out_links} order. The empty list
    means unreachable; [\[\[\]\]] means [src = dst]. *)

val ecmp_path : Nf_topo.Topology.t -> src:int -> dst:int -> hash:int -> int list
(** The [hash mod n]-th of the [n] shortest paths.
    @raise Invalid_argument when [dst] is unreachable from [src]. *)
