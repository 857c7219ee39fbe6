(* Figure 8: multipath resource pooling (§6.3). 64 servers each send to a
   distinct server in the other half of a 128-host, 8-leaf, 16-spine,
   all-10G leaf-spine. Each flow is split into k sub-flows hashed onto
   random spine paths. "Resource pooling" optimizes proportional fairness
   over the aggregate rate of each flow (Table 1 row 4); "no pooling"
   treats every sub-flow as an independent proportionally-fair flow. *)

module Problem = Nf_num.Problem
module Topology = Nf_topo.Topology
module Routing = Nf_topo.Routing
module Builders = Nf_topo.Builders
module Utility = Nf_num.Utility

type series_point = {
  n_subflows : int;
  total_pooling : float;  (* fraction of optimal *)
  total_no_pooling : float;
}

type t = {
  series : series_point list;
  (* Per-flow throughput (fraction of optimal per-flow rate), sorted
     descending, at the max sub-flow count, plus the single-path curve. *)
  fairness_pooling : float array;
  fairness_no_pooling : float array;
  fairness_single : float array;
}

let build_flows rng topology servers k =
  let pairs = Nf_workload.Traffic.half_permutation rng ~hosts:servers in
  Array.map
    (fun { Nf_workload.Traffic.src; dst } ->
      List.init k (fun _ ->
          let all = Routing.all_shortest_paths topology ~src ~dst in
          let n = List.length all in
          Array.of_list (List.nth all (Nf_util.Rng.int rng n))))
    pairs

let run_case topology paths ~pooling ~iters =
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topology) in
  let groups =
    if pooling then
      Array.to_list
        (Array.map
           (fun subpaths ->
             { Problem.utility = Utility.proportional_fair (); paths = subpaths })
           paths)
    else
      List.concat_map
        (fun subpaths ->
          List.map (Problem.single_path (Utility.proportional_fair ())) subpaths)
        (Array.to_list paths)
  in
  let problem = Problem.create ~caps ~groups in
  let scheme = Nf_fluid.Fluid_xwi.make problem in
  for _ = 1 to iters do
    scheme.Nf_fluid.Scheme.step ()
  done;
  let rates = scheme.Nf_fluid.Scheme.rates () in
  (* Aggregate per original flow. *)
  let flow_totals = Array.make (Array.length paths) 0. in
  let cursor = ref 0 in
  Array.iteri
    (fun f subpaths ->
      List.iter
        (fun _ ->
          flow_totals.(f) <- flow_totals.(f) +. rates.(!cursor);
          incr cursor)
        subpaths)
    paths;
  flow_totals

let run ?(seed = 7) ?(iters = 250) ?(max_subflows = 8) () =
  let ls =
    Builders.leaf_spine ~n_leaves:8 ~n_spines:16 ~servers_per_leaf:16
      ~fabric_capacity:(Nf_util.Units.gbps 10.) ()
  in
  let topology = ls.Builders.topo in
  let servers = ls.Builders.servers in
  let per_flow_optimal = Nf_util.Units.gbps 10. in
  let optimal_total = per_flow_optimal *. 64. in
  let case k pooling =
    let rng = Nf_util.Rng.create ~seed in
    (* Same seed: pooling and no-pooling see the same sub-flow placement. *)
    let paths = build_flows rng topology servers k in
    run_case topology paths ~pooling ~iters
  in
  let series =
    List.init max_subflows (fun i ->
        let k = i + 1 in
        let pool = case k true and nopool = case k false in
        {
          n_subflows = k;
          total_pooling = Array.fold_left ( +. ) 0. pool /. optimal_total;
          total_no_pooling = Array.fold_left ( +. ) 0. nopool /. optimal_total;
        })
  in
  let ranked totals =
    let fr = Array.map (fun r -> r /. per_flow_optimal) totals in
    Array.sort (fun a b -> compare b a) fr;
    fr
  in
  {
    series;
    fairness_pooling = ranked (case max_subflows true);
    fairness_no_pooling = ranked (case max_subflows false);
    fairness_single = ranked (case 1 true);
  }

let report t =
  let n = Array.length t.fairness_pooling in
  let spread a = (a.(0) -. a.(n - 1)) /. Float.max a.(0) 1e-9 in
  let throughput_rows =
    List.map
      (fun p ->
        [
          Report.text "total_throughput_pct";
          Report.int p.n_subflows;
          Report.float (100. *. p.total_pooling);
          Report.float (100. *. p.total_no_pooling);
          Report.float Float.nan;
        ])
      t.series
  in
  let fairness_rows =
    List.map
      (fun rank ->
        let idx = Stdlib.min (n - 1) rank in
        [
          Report.text "per_flow_pct_by_rank";
          Report.int idx;
          Report.float (100. *. t.fairness_pooling.(idx));
          Report.float (100. *. t.fairness_no_pooling.(idx));
          Report.float (100. *. t.fairness_single.(idx));
        ])
      [ 0; 8; 16; 24; 32; 40; 48; 56; 63 ]
  in
  Report.make
    ~title:
      "Figure 8: multipath resource pooling (throughput vs sub-flows; \
       per-flow fairness at max k)"
    ~columns:[ "section"; "k_or_rank"; "pooling"; "no_pooling"; "single_subflow" ]
    ~notes:
      [
        Printf.sprintf
          "fairness spread (max-min)/max: pooling %.2f, no-pooling %.2f, \
           single %.2f"
          (spread t.fairness_pooling)
          (spread t.fairness_no_pooling)
          (spread t.fairness_single);
        Printf.sprintf
          "Jain's index: pooling %.3f, no-pooling %.3f, single %.3f"
          (Nf_util.Stats.jain_index t.fairness_pooling)
          (Nf_util.Stats.jain_index t.fairness_no_pooling)
          (Nf_util.Stats.jain_index t.fairness_single);
        "paper: pooling approaches ~100% of optimal by 8 sub-flows and is \
         almost perfectly fair across flows; no pooling much less so";
      ]
    (throughput_rows @ fairness_rows)
