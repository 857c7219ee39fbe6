(* Tests for nf_topo: graph construction, routing, canonical builders. *)

module Topology = Nf_topo.Topology
module Routing = Nf_topo.Routing
module Builders = Nf_topo.Builders
module Ecmp_enum = Nf_reference.Ecmp_enum
module Fixtures = Nf_testkit.Fixtures
module Units = Nf_util.Units
module Rng = Nf_util.Rng

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

(* The router's first shortest path (hash 0); [None] when unreachable. *)
let shortest_path topo ~src ~dst =
  let r = Routing.router topo in
  if Routing.ecmp_width r ~src ~dst = 0 then None
  else Some (Routing.ecmp_path_fast r ~src ~dst ~hash:0)

(* Hop count of a shortest path; [None] when unreachable. *)
let hops topo ~src ~dst = Option.map List.length (shortest_path topo ~src ~dst)

(* Number of equal-cost shortest paths. *)
let n_paths topo ~src ~dst = Routing.ecmp_width (Routing.router topo) ~src ~dst

(* Every shortest path, in the router's hash order. *)
let router_paths topo ~src ~dst =
  let r = Routing.router topo in
  List.init (Routing.ecmp_width r ~src ~dst) (fun hash ->
      Routing.ecmp_path_fast r ~src ~dst ~hash)

(* ------------------------------------------------------------------ *)
(* Builder / Topology *)

let line_topology () =
  (* h0 -> sw -> h1, duplex *)
  let b = Topology.Builder.create () in
  let h0 = Topology.Builder.add_host b ~label:"h0" () in
  let sw = Topology.Builder.add_switch b ~label:"sw" () in
  let h1 = Topology.Builder.add_host b ~label:"h1" () in
  let l0, l0' = Topology.Builder.add_duplex b h0 sw ~capacity:(Units.gbps 10.) ~delay:1e-6 in
  let l1, l1' = Topology.Builder.add_duplex b sw h1 ~capacity:(Units.gbps 10.) ~delay:1e-6 in
  (Topology.Builder.finish b, h0, sw, h1, l0, l0', l1, l1')

let test_builder_basic () =
  let topo, h0, sw, h1, l0, _, l1, _ = line_topology () in
  Alcotest.(check int) "nodes" 3 (Topology.n_nodes topo);
  Alcotest.(check int) "links" 4 (Topology.n_links topo);
  let count kind =
    List.length
      (List.filter
         (fun i -> (Topology.node topo i).Topology.kind = kind)
         (List.init (Topology.n_nodes topo) Fun.id))
  in
  Alcotest.(check int) "hosts" 2 (count Topology.Host);
  Alcotest.(check int) "switches" 1 (count Topology.Switch);
  Alcotest.(check bool) "kind" true ((Topology.node topo sw).Topology.kind = Topology.Switch);
  Alcotest.(check (option int)) "find_link" (Some l0)
    (Topology.find_link topo ~src:h0 ~dst:sw);
  Alcotest.(check bool) "path valid" true
    (Topology.path_is_valid topo ~src:h0 ~dst:h1 [ l0; l1 ]);
  Alcotest.(check bool) "path invalid" false
    (Topology.path_is_valid topo ~src:h0 ~dst:h1 [ l1; l0 ]);
  Alcotest.(check (float 1.)) "path min capacity" (Units.gbps 10.)
    (Topology.path_min_capacity topo [ l0; l1 ])

let test_builder_validation () =
  let b = Topology.Builder.create () in
  let h = Topology.Builder.add_host b () in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology.Builder.add_link: self loop") (fun () ->
      ignore (Topology.Builder.add_link b ~src:h ~dst:h ~capacity:1. ~delay:0.));
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Topology.Builder.add_link: unknown node") (fun () ->
      ignore (Topology.Builder.add_link b ~src:h ~dst:99 ~capacity:1. ~delay:0.));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Topology.Builder.add_link: capacity must be positive")
    (fun () ->
      let h2 = Topology.Builder.add_host b () in
      ignore (Topology.Builder.add_link b ~src:h ~dst:h2 ~capacity:0. ~delay:0.))

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_shortest_path_line () =
  let topo, h0, _, h1, l0, _, l1, _ = line_topology () in
  (match shortest_path topo ~src:h0 ~dst:h1 with
  | Some p -> Alcotest.(check (list int)) "path" [ l0; l1 ] p
  | None -> Alcotest.fail "expected a path");
  Alcotest.(check (option int)) "hops" (Some 2) (hops topo ~src:h0 ~dst:h1);
  Alcotest.(check (option (list int))) "self path" (Some [])
    (shortest_path topo ~src:h0 ~dst:h0)

let test_unreachable () =
  let b = Topology.Builder.create () in
  let a = Topology.Builder.add_host b () in
  let c = Topology.Builder.add_host b () in
  ignore (Topology.Builder.add_link b ~src:a ~dst:c ~capacity:1. ~delay:0.);
  let topo = Topology.Builder.finish b in
  Alcotest.(check (option (list int))) "one way only" None
    (shortest_path topo ~src:c ~dst:a);
  Alcotest.(check int) "no paths" 0 (n_paths topo ~src:c ~dst:a);
  Alcotest.(check (list (list int))) "no paths (reference)" []
    (Ecmp_enum.all_shortest_paths topo ~src:c ~dst:a)

let test_leaf_spine_paths () =
  let ls = Builders.leaf_spine ~n_leaves:4 ~n_spines:3 ~servers_per_leaf:2 () in
  let topo = ls.Builders.topo in
  Alcotest.(check int) "servers" 8 (Array.length ls.Builders.servers);
  (* Same-leaf pair: unique 2-hop path. *)
  let s0 = ls.Builders.servers.(0) and s1 = ls.Builders.servers.(1) in
  Alcotest.(check int) "same leaf: 1 path" 1
    (n_paths topo ~src:s0 ~dst:s1);
  (* Cross-leaf pair: one path per spine. *)
  let s2 = ls.Builders.servers.(2) in
  let paths = router_paths topo ~src:s0 ~dst:s2 in
  Alcotest.(check int) "cross leaf: n_spines paths" 3 (List.length paths);
  Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare paths));
  List.iter
    (fun p ->
      Alcotest.(check int) "4 hops" 4 (List.length p);
      Alcotest.(check bool) "valid" true
        (Topology.path_is_valid topo ~src:s0 ~dst:s2 p))
    paths

let test_ecmp_selection () =
  let ls = Builders.leaf_spine ~n_leaves:2 ~n_spines:4 ~servers_per_leaf:1 () in
  let topo = ls.Builders.topo in
  let r = Routing.router topo in
  let s0 = ls.Builders.servers.(0) and s1 = ls.Builders.servers.(1) in
  let seen = Hashtbl.create 4 in
  for hash = 0 to 7 do
    let p = Routing.ecmp_path_fast r ~src:s0 ~dst:s1 ~hash in
    Hashtbl.replace seen p ()
  done;
  Alcotest.(check int) "hashes cover all 4 paths" 4 (Hashtbl.length seen);
  (* Negative hashes are fine too. *)
  let p = Routing.ecmp_path_fast r ~src:s0 ~dst:s1 ~hash:(-3) in
  Alcotest.(check bool) "negative hash valid" true
    (Topology.path_is_valid topo ~src:s0 ~dst:s1 p)

let test_paper_leaf_spine () =
  let ls = Builders.paper_leaf_spine () in
  Alcotest.(check int) "128 servers" 128 (Array.length ls.Builders.servers);
  Alcotest.(check int) "8 leaves" 8 (Array.length ls.Builders.leaves);
  Alcotest.(check int) "4 spines" 4 (Array.length ls.Builders.spines);
  (* Full bisection: leaf uplink capacity = leaf downlink capacity. *)
  let topo = ls.Builders.topo in
  let leaf = ls.Builders.leaves.(0) in
  let up, down =
    List.fold_left
      (fun (up, down) lid ->
        let l = Topology.link topo lid in
        match (Topology.node topo l.Topology.dst).Topology.kind with
        | Topology.Switch -> (up +. l.Topology.capacity, down)
        | Topology.Host -> (up, down +. l.Topology.capacity))
      (0., 0.)
      (Topology.out_links topo leaf)
  in
  Alcotest.(check (float 1.)) "full bisection" up down

let test_single_bottleneck () =
  let sb = Builders.single_bottleneck ~n_senders:3 () in
  let topo = sb.Builders.sb_topo in
  Array.iter
    (fun s ->
      match shortest_path topo ~src:s ~dst:sb.Builders.receiver with
      | Some p ->
        Alcotest.(check bool) "sender path crosses bottleneck" true
          (List.mem sb.Builders.bottleneck p)
      | None -> Alcotest.fail "no path")
    sb.Builders.senders

let test_parking_lot () =
  let pl = Fixtures.parking_lot ~n_links:3 () in
  let topo = pl.Fixtures.pl_topo in
  let h0 = pl.Fixtures.pl_hosts.(0) and h3 = pl.Fixtures.pl_hosts.(3) in
  match shortest_path topo ~src:h0 ~dst:h3 with
  | Some p ->
    (* access + 3 chain links + access = 5 hops *)
    Alcotest.(check int) "long flow hops" 5 (List.length p);
    Array.iter
      (fun lid -> Alcotest.(check bool) "chain link on path" true (List.mem lid p))
      pl.Fixtures.pl_links
  | None -> Alcotest.fail "no path"

let test_three_link_pooling () =
  let tl = Builders.three_link_pooling ~middle_capacity:(Units.gbps 17.) () in
  let topo = tl.Builders.tl_topo in
  Alcotest.(check (float 1.)) "middle capacity" (Units.gbps 17.)
    (Topology.link topo tl.Builders.middle).Topology.capacity;
  List.iter
    (fun p ->
      Alcotest.(check bool) "flow1 path valid" true
        (Topology.path_is_valid topo ~src:tl.Builders.src1 ~dst:tl.Builders.sink p))
    tl.Builders.tl_paths1;
  List.iter
    (fun p ->
      Alcotest.(check bool) "flow2 path valid" true
        (Topology.path_is_valid topo ~src:tl.Builders.src2 ~dst:tl.Builders.sink p))
    tl.Builders.tl_paths2

let prop_random_leaf_spine_routes =
  QCheck.Test.make ~name:"shortest paths are valid on random leaf-spines" ~count:50
    QCheck.(triple (1 -- 4) (1 -- 4) (1 -- 4))
    (fun (n_leaves, n_spines, per_leaf) ->
      let ls = Builders.leaf_spine ~n_leaves ~n_spines ~servers_per_leaf:per_leaf () in
      let topo = ls.Builders.topo in
      let servers = ls.Builders.servers in
      let r = Routing.router topo in
      let rng = Rng.create ~seed:(n_leaves + (7 * n_spines) + (31 * per_leaf)) in
      let ok = ref true in
      for _ = 1 to 10 do
        let s = Rng.pick rng servers and d = Rng.pick rng servers in
        if s <> d then begin
          let p = Routing.ecmp_path_fast r ~src:s ~dst:d ~hash:(s + d) in
          if not (Topology.path_is_valid topo ~src:s ~dst:d p) then ok := false
        end
      done;
      !ok)

let test_fat_tree () =
  let ft = Builders.fat_tree ~k:4 () in
  let topo = ft.Builders.ft_topo in
  Alcotest.(check int) "k^3/4 servers" 16 (Array.length ft.Builders.ft_servers);
  Alcotest.(check int) "k*k/2 edges" 8 (Array.length ft.Builders.ft_edges);
  Alcotest.(check int) "k*k/2 aggs" 8 (Array.length ft.Builders.ft_aggs);
  Alcotest.(check int) "(k/2)^2 cores" 4 (Array.length ft.Builders.ft_cores);
  (* Same-pod different-edge pair: 4 hops, k/2 ECMP paths. *)
  let s0 = ft.Builders.ft_servers.(0) and s2 = ft.Builders.ft_servers.(2) in
  Alcotest.(check (option int)) "intra-pod hops" (Some 4)
    (hops topo ~src:s0 ~dst:s2);
  Alcotest.(check int) "intra-pod ECMP" 2 (n_paths topo ~src:s0 ~dst:s2);
  (* Cross-pod pair: 6 hops, (k/2)^2 ECMP paths. *)
  let s8 = ft.Builders.ft_servers.(8) in
  Alcotest.(check (option int)) "cross-pod hops" (Some 6)
    (hops topo ~src:s0 ~dst:s8);
  let paths = router_paths topo ~src:s0 ~dst:s8 in
  Alcotest.(check int) "cross-pod ECMP" 4 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid" true
        (Topology.path_is_valid topo ~src:s0 ~dst:s8 p))
    paths;
  Alcotest.check_raises "odd k rejected"
    (Invalid_argument "Builders.fat_tree: k must be even and >= 2") (fun () ->
      ignore (Builders.fat_tree ~k:3 ()))

let test_leaf_spine_large () =
  let ls = Builders.leaf_spine_large () in
  Alcotest.(check int) "1024 servers" 1024 (Array.length ls.Builders.servers);
  Alcotest.(check int) "32 leaves" 32 (Array.length ls.Builders.leaves);
  Alcotest.(check int) "16 spines" 16 (Array.length ls.Builders.spines);
  (* 1024 server links + 32*16 leaf-spine links, both duplex. *)
  Alcotest.(check int) "link count" 3072 (Topology.n_links ls.Builders.topo);
  let s0 = ls.Builders.servers.(0) and s40 = ls.Builders.servers.(40) in
  Alcotest.(check (option int)) "cross-leaf hops" (Some 4)
    (hops ls.Builders.topo ~src:s0 ~dst:s40);
  Alcotest.(check int) "one ECMP path per spine" 16
    (n_paths ls.Builders.topo ~src:s0 ~dst:s40)

let test_fat_tree_presets () =
  let ft16 = Builders.fat_tree_k16 () in
  Alcotest.(check int) "k16 servers" 1024 (Array.length ft16.Builders.ft_servers);
  Alcotest.(check int) "k16 edges" 128 (Array.length ft16.Builders.ft_edges);
  Alcotest.(check int) "k16 aggs" 128 (Array.length ft16.Builders.ft_aggs);
  Alcotest.(check int) "k16 cores" 64 (Array.length ft16.Builders.ft_cores);
  (* server + edge-agg + agg-core layers each contribute k^3/4 duplex
     links: 3 * 1024 * 2 directed links. *)
  Alcotest.(check int) "k16 link count" 6144 (Topology.n_links ft16.Builders.ft_topo);
  let topo = ft16.Builders.ft_topo in
  let srv = ft16.Builders.ft_servers in
  Alcotest.(check (option int)) "k16 same-edge hops" (Some 2)
    (hops topo ~src:srv.(0) ~dst:srv.(1));
  Alcotest.(check (option int)) "k16 intra-pod hops" (Some 4)
    (hops topo ~src:srv.(0) ~dst:srv.(8));
  (* Pod 0 holds (k/2)^2 = 64 servers: server 64 is in pod 1. *)
  Alcotest.(check (option int)) "k16 cross-pod hops" (Some 6)
    (hops topo ~src:srv.(0) ~dst:srv.(64));
  Alcotest.(check int) "k16 intra-pod ECMP" 8
    (n_paths topo ~src:srv.(0) ~dst:srv.(8));
  Alcotest.(check int) "k16 cross-pod ECMP" 64
    (n_paths topo ~src:srv.(0) ~dst:srv.(64))

(* Fat tree or paper leaf-spine, with its hosts. *)
let sample_topology use_fat_tree =
  if use_fat_tree then
    let ft = Builders.fat_tree ~k:4 () in
    (ft.Builders.ft_topo, ft.Builders.ft_servers)
  else
    let ls = Builders.paper_leaf_spine () in
    (ls.Builders.topo, ls.Builders.servers)

let prop_router_matches_ecmp_path =
  (* The memoized router must reproduce the enumerating reference exactly:
     same path for every hash. *)
  QCheck.Test.make ~name:"router matches enumerating ECMP" ~count:60
    QCheck.(pair small_int bool)
    (fun (seed, use_fat_tree) ->
      let topo, hosts = sample_topology use_fat_tree in
      let r = Routing.router topo in
      let rng = Rng.create ~seed:(seed + 71) in
      let ok = ref true in
      for i = 1 to 12 do
        let s = Rng.pick rng hosts and d = Rng.pick rng hosts in
        if s <> d then begin
          let hash = (i * 2654435761) + seed in
          let slow = Ecmp_enum.ecmp_path topo ~src:s ~dst:d ~hash in
          let fast = Routing.ecmp_path_fast r ~src:s ~dst:d ~hash in
          if slow <> fast then ok := false
        end
      done;
      !ok)

(* Hashes 0 .. width - 1 list every shortest path once, in the reference's
   enumeration order: fig8 draws a uniform index in that range. *)
let test_router_lists_all_paths () =
  List.iter
    (fun use_fat_tree ->
      let topo, hosts = sample_topology use_fat_tree in
      let rng = Rng.create ~seed:5 in
      for _ = 1 to 20 do
        let s = Rng.pick rng hosts and d = Rng.pick rng hosts in
        Alcotest.(check (list (list int))) "all shortest paths, in order"
          (Ecmp_enum.all_shortest_paths topo ~src:s ~dst:d)
          (router_paths topo ~src:s ~dst:d)
      done)
    [ true; false ]

let test_router_unreachable () =
  (* Two disconnected hosts: the router has no path and raises. *)
  let b = Topology.Builder.create () in
  let h0 = Topology.Builder.add_host b ~label:"h0" () in
  let h1 = Topology.Builder.add_host b ~label:"h1" () in
  let topo = Topology.Builder.finish b in
  let r = Routing.router topo in
  Alcotest.(check int) "no paths" 0 (Routing.ecmp_width r ~src:h0 ~dst:h1);
  Alcotest.check_raises "raises"
    (Invalid_argument "Routing.ecmp_path_fast: destination unreachable")
    (fun () -> ignore (Routing.ecmp_path_fast r ~src:h0 ~dst:h1 ~hash:3))

let () =
  Alcotest.run "nf_topo"
    [
      ( "topology",
        [
          quick "builder basics" test_builder_basic;
          quick "builder validation" test_builder_validation;
        ] );
      ( "routing",
        [
          quick "line shortest path" test_shortest_path_line;
          quick "unreachable" test_unreachable;
          quick "leaf-spine path enumeration" test_leaf_spine_paths;
          quick "ecmp selection" test_ecmp_selection;
          qcheck prop_random_leaf_spine_routes;
          qcheck prop_router_matches_ecmp_path;
          quick "router lists all shortest paths in order" test_router_lists_all_paths;
          quick "router unreachable" test_router_unreachable;
        ] );
      ( "builders",
        [
          quick "paper leaf-spine" test_paper_leaf_spine;
          quick "single bottleneck" test_single_bottleneck;
          quick "parking lot" test_parking_lot;
          quick "three-link pooling" test_three_link_pooling;
          quick "fat tree" test_fat_tree;
          quick "leaf-spine large" test_leaf_spine_large;
          quick "fat tree presets" test_fat_tree_presets;
        ] );
    ]
