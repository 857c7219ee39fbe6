(* Large-topology convergence study for the sparse NUM core.

   ROADMAP's scale goal: run the xWI fluid iteration on fabrics far
   beyond the paper's 128-server leaf-spine — a k=16 fat tree with 100k+
   concurrent flows — and verify it still drives the KKT residual down.
   Flows are placed with the memoized ECMP router (exact [ecmp_path]
   semantics, no path enumeration), and the iteration runs a fixed
   budget of sparse steps so the report stays deterministic: the
   solver's throughput is measured separately, by nfbench's solve_cold. *)

module Problem = Nf_num.Problem
module Utility = Nf_num.Utility
module Xwi = Nf_num.Xwi_core
module Kkt = Nf_num.Kkt
module Rng = Nf_util.Rng

type row = {
  fabric : string;
  hosts : int;
  links : int;
  flows : int;
  iterations : int;
  kkt_initial : float;
  kkt_final : float;
  feasible : bool;
}

type t = row list

let build_problem ~topo ~hosts ~n_flows ~seed =
  let rng = Rng.create ~seed in
  let pairs = Nf_workload.Traffic.random_pairs rng ~hosts ~n:n_flows in
  let router = Nf_topo.Routing.router topo in
  let utility = Utility.proportional_fair () in
  let groups =
    Array.to_list
      (Array.mapi
         (fun i { Nf_workload.Traffic.src; dst } ->
           Problem.single_path utility
             (Array.of_list
                (Nf_topo.Routing.ecmp_path_fast router ~src ~dst
                   ~hash:(i * 2654435761))))
         pairs)
  in
  let caps =
    Array.map
      (fun (l : Nf_topo.Topology.link) -> l.Nf_topo.Topology.capacity)
      (Nf_topo.Topology.links topo)
  in
  Problem.create ~caps ~groups

let run_fabric ~name ~topo ~hosts ~n_flows ~iterations ~seed =
  let problem = build_problem ~topo ~hosts ~n_flows ~seed in
  let state = Xwi.init problem in
  let kkt rates prices =
    Kkt.worst (Kkt.check problem ~rates ~prices)
  in
  let kkt_initial = kkt state.Xwi.rates state.Xwi.prices in
  for _ = 1 to iterations do
    Xwi.step problem Xwi.default_params state
  done;
  let kkt_final = kkt state.Xwi.rates state.Xwi.prices in
  {
    fabric = name;
    hosts = Array.length hosts;
    links = Problem.n_links problem;
    flows = n_flows;
    iterations;
    kkt_initial;
    kkt_final;
    feasible = Problem.feasible problem ~rates:state.Xwi.rates;
  }

let run ?(seed = 29) ?(flows_leaf_spine = 20_000) ?(flows_fat_tree = 100_000)
    ?(iterations = 40) () =
  let ls = Nf_topo.Builders.leaf_spine_large () in
  let ft = Nf_topo.Builders.fat_tree_k16 () in
  [
    run_fabric ~name:"leaf_spine_1024"
      ~topo:ls.Nf_topo.Builders.topo
      ~hosts:ls.Nf_topo.Builders.servers ~n_flows:flows_leaf_spine ~iterations
      ~seed;
    run_fabric ~name:"fat_tree_k16"
      ~topo:ft.Nf_topo.Builders.ft_topo
      ~hosts:ft.Nf_topo.Builders.ft_servers ~n_flows:flows_fat_tree ~iterations
      ~seed:(seed + 1);
  ]

let report t =
  Report.make
    ~title:
      "Large-fabric xWI convergence (sparse CSR core; fixed iteration \
       budget)"
    ~columns:
      [
        "fabric";
        "hosts";
        "links";
        "flows";
        "iterations";
        "kkt_initial";
        "kkt_final";
        "feasible";
      ]
    ~notes:
      [
        "ROADMAP scale goal: k=16 fat tree with 100k+ concurrent flows \
         under the fluid engine";
      ]
    (List.map
       (fun r ->
         [
           Report.text r.fabric;
           Report.int r.hosts;
           Report.int r.links;
           Report.int r.flows;
           Report.int r.iterations;
           Report.float r.kkt_initial;
           Report.float r.kkt_final;
           Report.int (if r.feasible then 1 else 0);
         ])
       t)
