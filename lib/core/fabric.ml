module Topology = Nf_topo.Topology
module Routing = Nf_topo.Routing
module Problem = Nf_num.Problem

type demand = {
  key : int;
  src : int;
  dst : int;
  size : float;
  subflows : int;
  pinned_paths : int list list option;
}

let demand ?(size = infinity) ?(subflows = 1) ?paths ~key ~src ~dst () =
  if subflows < 1 then invalid_arg "Fabric.demand: subflows must be >= 1";
  { key; src; dst; size; subflows; pinned_paths = paths }

type t = {
  topology : Topology.t;
  objective : Objective.t;
  demand_list : demand list;
  resolved : (int, int array list) Hashtbl.t;  (* key -> sub-flow paths *)
  prob : Problem.t;
}

let resolve_paths topology router d =
  match d.pinned_paths with
  | Some paths ->
    List.iteri
      (fun i p ->
        if not (Topology.path_is_valid topology ~src:d.src ~dst:d.dst p) then
          invalid_arg
            (Printf.sprintf "Fabric.plan: demand %d sub-flow %d has invalid path"
               d.key i))
      paths;
    if List.length paths <> d.subflows then
      invalid_arg "Fabric.plan: pinned path count must equal subflows";
    List.map Array.of_list paths
  | None ->
    List.init d.subflows (fun i ->
        Array.of_list
          (Routing.ecmp_path_fast router ~src:d.src ~dst:d.dst
             ~hash:((d.key * 2654435761) + (i * 40503))))

let plan ~topology ~objective ~demands =
  if demands = [] then invalid_arg "Fabric.plan: no demands";
  let seen = Hashtbl.create 64 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d.key then invalid_arg "Fabric.plan: duplicate demand key";
      Hashtbl.replace seen d.key ();
      match
        ( (Topology.node topology d.src).Topology.kind,
          (Topology.node topology d.dst).Topology.kind )
      with
      | Topology.Host, Topology.Host -> ()
      | _ -> invalid_arg "Fabric.plan: demand endpoints must be hosts")
    demands;
  let resolved = Hashtbl.create 64 in
  let router = Routing.router topology in
  let groups =
    List.map
      (fun d ->
        let paths = resolve_paths topology router d in
        Hashtbl.replace resolved d.key paths;
        {
          Problem.utility = Objective.utility_for objective ~key:d.key ~size:d.size;
          paths;
        })
      demands
  in
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topology) in
  let prob = Problem.create ~caps ~groups in
  { topology; objective; demand_list = demands; resolved; prob }

let demands t = t.demand_list

let optimal t =
  let sol = Nf_num.Oracle.solve t.prob in
  List.mapi (fun g d -> (d.key, sol.Nf_num.Oracle.group_rates.(g))) t.demand_list

let simulate ~until t =
  List.iter
    (fun d ->
      if d.subflows > 1 then
        invalid_arg "Fabric.simulate: multipath demands not supported at packet level")
    t.demand_list;
  let net =
    Nf_sim.Network.create ~topology:t.topology
      ~protocol:(Nf_sim.Protocols.get "numfabric") ()
  in
  List.iter
    (fun d ->
      let path =
        match Hashtbl.find_opt t.resolved d.key with
        | Some [ p ] -> p
        | Some _ | None -> assert false
      in
      Nf_sim.Network.add_flow net
        (Nf_sim.Network.flow ~path
           ~utility:(Objective.utility_for t.objective ~key:d.key ~size:d.size)
           ~size:d.size ~id:d.key ~src:d.src ~dst:d.dst ()))
    t.demand_list;
  Nf_sim.Network.run net ~until;
  net
