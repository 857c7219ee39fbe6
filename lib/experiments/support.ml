module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Oracle = Nf_num.Oracle
module Scheme = Nf_fluid.Scheme
module Convergence = Nf_fluid.Convergence
module Routing = Nf_topo.Routing
module Topology = Nf_topo.Topology

type scheme_kind =
  | Scheme_numfabric of { params : Xwi_core.params; interval : float }
  | Scheme_dgd
  | Scheme_rcp of { alpha : float }

let numfabric_default =
  Scheme_numfabric
    { params = Xwi_core.default_params; interval = Nf_num.Price_law.xwi_interval }

let scheme_name = function
  | Scheme_numfabric _ -> "NUMFabric"
  | Scheme_dgd -> "DGD"
  | Scheme_rcp _ -> "RCP*"

let make_scheme kind problem =
  match kind with
  | Scheme_numfabric { params; interval } ->
    Nf_fluid.Fluid_xwi.make ~params ~interval problem
  | Scheme_dgd -> Nf_fluid.Fluid_dgd.make problem
  | Scheme_rcp { alpha } -> Nf_fluid.Fluid_rcp.make ~alpha problem

let bdp_bytes = 20_000.

type semidyn_setup = {
  seed : int;
  n_paths : int;
  flows_per_event : int;
  active_min : int;
  active_max : int;
  n_events : int;
  utility_of : int -> Nf_num.Utility.t;
  criteria : Convergence.criteria;
}

let default_semidyn ~seed ~n_events =
  {
    seed;
    n_paths = 1000;
    flows_per_event = 100;
    active_min = 300;
    active_max = 500;
    n_events;
    utility_of = (fun _ -> Nf_num.Utility.proportional_fair ());
    criteria =
      {
        Convergence.within = 0.1;
        fraction = 0.95;
        sustain = 1e-3;
        max_time = 50e-3;
      };
  }

let sweep_semidyn ~seed ~n_events =
  {
    (default_semidyn ~seed ~n_events) with
    n_paths = 250;
    flows_per_event = 25;
    active_min = 75;
    active_max = 125;
  }

let sweep_leaf_spine () =
  Nf_topo.Builders.leaf_spine ~n_leaves:4 ~n_spines:2 ~servers_per_leaf:8 ()

type semidyn_result = { times : float array; unconverged : int }

let median_time times =
  if Array.length times > 0 then Nf_util.Stats.median times else Float.nan

type semidyn_scenario = {
  setup : semidyn_setup;
  topology : Topology.t;
  workload : Nf_workload.Semidynamic.t;
  paths : int array array;
  problems : Problem.t array;
  targets : float array array;
}

let semidyn_prepare ~setup ~topology ~hosts () =
  let rng = Nf_util.Rng.create ~seed:setup.seed in
  let workload =
    Nf_workload.Semidynamic.generate rng ~hosts ~n_paths:setup.n_paths
      ~flows_per_event:setup.flows_per_event ~active_min:setup.active_min
      ~active_max:setup.active_max ~n_events:setup.n_events ()
  in
  (* Resolve each path once. *)
  let router = Routing.router topology in
  let paths =
    Array.mapi
      (fun i { Nf_workload.Traffic.src; dst } ->
        Array.of_list (Routing.ecmp_path_fast router ~src ~dst ~hash:(i * 2654435761)))
      workload.Nf_workload.Semidynamic.pairs
  in
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topology) in
  let problem_of active =
    let groups =
      List.map (fun i -> Problem.single_path (setup.utility_of i) paths.(i)) active
    in
    Problem.create ~caps ~groups
  in
  let carry = Oracle.carry () in
  let problems =
    Array.init (setup.n_events + 1) (fun k ->
        problem_of (Nf_workload.Semidynamic.active_after workload k))
  in
  let targets =
    Nf_util.Profile.time "oracle-targets" @@ fun () ->
    Array.map (fun p -> (Oracle.solve ~tol:1e-5 ~carry p).Oracle.rates) problems
  in
  { setup; topology; workload; paths; problems; targets }

let semidyn_run ~scenario ~scheme =
  (* Accounted per scheme so a profiled fig4a/fig6 run shows how the wall
     time splits between the schemes under comparison. *)
  Nf_util.Profile.time ("fluid-" ^ scheme_name scheme) @@ fun () ->
  let criteria = scenario.setup.criteria in
  let s = make_scheme scheme scenario.problems.(0) in
  (* Let the initial population settle before the first event. *)
  ignore (Convergence.measure ~criteria s ~target:scenario.targets.(0));
  let times = ref [] in
  let unconverged = ref 0 in
  for k = 1 to Array.length scenario.problems - 1 do
    s.Scheme.rebind scenario.problems.(k);
    match Convergence.measure ~criteria s ~target:scenario.targets.(k) with
    | Some t -> times := t :: !times
    | None -> incr unconverged
  done;
  { times = Array.of_list (List.rev !times); unconverged = !unconverged }

let dynamic_flows ~seed ~topology ~hosts ~size_dist ~load ~n_flows ~utility_of =
  let rng = Nf_util.Rng.create ~seed in
  (* Host line rate: capacity of the first link leaving the first host. *)
  let host_capacity =
    match Topology.out_links topology hosts.(0) with
    | lid :: _ -> (Topology.link topology lid).Topology.capacity
    | [] -> invalid_arg "Support.dynamic_flows: host has no uplink"
  in
  let rate_per_sec =
    Nf_workload.Traffic.load_to_rate ~load ~n_hosts:(Array.length hosts)
      ~host_capacity ~mean_size:(Nf_workload.Size_dist.mean size_dist)
  in
  (* Generate a long-enough Poisson horizon, then truncate to n_flows. *)
  let duration = 2. *. float_of_int n_flows /. rate_per_sec in
  let pairs = Nf_workload.Traffic.random_pairs rng ~hosts ~n:(4 * n_flows) in
  let arrivals =
    Nf_workload.Traffic.poisson_arrivals rng ~pairs ~size_dist ~rate_per_sec ~duration
  in
  let router = Routing.router topology in
  let flows =
    List.filteri (fun i _ -> i < n_flows) arrivals
    |> List.mapi (fun i { Nf_workload.Traffic.at; size; pair } ->
           let path =
             Array.of_list
               (Routing.ecmp_path_fast router ~src:pair.Nf_workload.Traffic.src
                  ~dst:pair.Nf_workload.Traffic.dst ~hash:(i * 2654435761))
           in
           {
             Nf_fluid.Dynamic.key = i;
             arrival = at;
             size;
             path;
             utility = utility_of ~size;
           })
  in
  if List.length flows < n_flows then
    invalid_arg "Support.dynamic_flows: horizon too short (internal)";
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topology) in
  (flows, caps)
