let gbps = Nf_util.Units.gbps

let usec = Nf_util.Units.usec

type leaf_spine = {
  topo : Topology.t;
  servers : int array;
  leaves : int array;
  spines : int array;
}

let leaf_spine ?(server_capacity = gbps 10.) ?(fabric_capacity = gbps 40.)
    ?(link_delay = usec 2.) ~n_leaves ~n_spines ~servers_per_leaf () =
  if n_leaves <= 0 || n_spines <= 0 || servers_per_leaf <= 0 then
    invalid_arg "Builders.leaf_spine: all counts must be positive";
  let b = Topology.Builder.create () in
  let leaves =
    Array.init n_leaves (fun i ->
        Topology.Builder.add_switch b ~label:(Printf.sprintf "leaf%d" i) ())
  in
  let spines =
    Array.init n_spines (fun i ->
        Topology.Builder.add_switch b ~label:(Printf.sprintf "spine%d" i) ())
  in
  let servers =
    Array.init (n_leaves * servers_per_leaf) (fun i ->
        Topology.Builder.add_host b ~label:(Printf.sprintf "srv%d" i) ())
  in
  Array.iteri
    (fun i srv ->
      let leaf = leaves.(i / servers_per_leaf) in
      ignore
        (Topology.Builder.add_duplex b srv leaf ~capacity:server_capacity
           ~delay:link_delay))
    servers;
  Array.iter
    (fun leaf ->
      Array.iter
        (fun spine ->
          ignore
            (Topology.Builder.add_duplex b leaf spine ~capacity:fabric_capacity
               ~delay:link_delay))
        spines)
    leaves;
  { topo = Topology.Builder.finish b; servers; leaves; spines }

let paper_leaf_spine () =
  leaf_spine ~n_leaves:8 ~n_spines:4 ~servers_per_leaf:16 ()

let leaf_spine_large () =
  leaf_spine ~n_leaves:32 ~n_spines:16 ~servers_per_leaf:32 ()

type fat_tree = {
  ft_topo : Topology.t;
  ft_servers : int array;
  ft_edges : int array;
  ft_aggs : int array;
  ft_cores : int array;
}

let fat_tree ?(link_capacity = gbps 10.) ?(link_delay = usec 2.) ~k () =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Builders.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  let b = Topology.Builder.create () in
  let ft_cores =
    Array.init (half * half) (fun i ->
        Topology.Builder.add_switch b ~label:(Printf.sprintf "core%d" i) ())
  in
  let ft_edges =
    Array.init (k * half) (fun i ->
        Topology.Builder.add_switch b ~label:(Printf.sprintf "edge%d" i) ())
  in
  let ft_aggs =
    Array.init (k * half) (fun i ->
        Topology.Builder.add_switch b ~label:(Printf.sprintf "agg%d" i) ())
  in
  let ft_servers =
    Array.init (k * half * half) (fun i ->
        Topology.Builder.add_host b ~label:(Printf.sprintf "srv%d" i) ())
  in
  let duplex a c =
    ignore (Topology.Builder.add_duplex b a c ~capacity:link_capacity ~delay:link_delay)
  in
  (* Servers to edge switches: half servers per edge switch. *)
  Array.iteri (fun i srv -> duplex srv ft_edges.(i / half)) ft_servers;
  (* Within each pod: full bipartite edge <-> aggregation. *)
  for pod = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        duplex ft_edges.((pod * half) + e) ft_aggs.((pod * half) + a)
      done
    done
  done;
  (* Aggregation j of every pod connects to cores [j*half, (j+1)*half). *)
  for pod = 0 to k - 1 do
    for a = 0 to half - 1 do
      for c = 0 to half - 1 do
        duplex ft_aggs.((pod * half) + a) ft_cores.((a * half) + c)
      done
    done
  done;
  { ft_topo = Topology.Builder.finish b; ft_servers; ft_edges; ft_aggs; ft_cores }

let fat_tree_k16 () = fat_tree ~k:16 ()

type single_bottleneck = {
  sb_topo : Topology.t;
  senders : int array;
  receiver : int;
  bottleneck : int;
}

let single_bottleneck ?access_capacity ?(capacity = gbps 10.)
    ?(delay = usec 2.) ~n_senders () =
  if n_senders <= 0 then
    invalid_arg "Builders.single_bottleneck: need at least one sender";
  let access = match access_capacity with Some c -> c | None -> 4. *. capacity in
  let b = Topology.Builder.create () in
  let sw = Topology.Builder.add_switch b ~label:"sw" () in
  let senders =
    Array.init n_senders (fun i ->
        Topology.Builder.add_host b ~label:(Printf.sprintf "snd%d" i) ())
  in
  let receiver = Topology.Builder.add_host b ~label:"rcv" () in
  Array.iter
    (fun s -> ignore (Topology.Builder.add_duplex b s sw ~capacity:access ~delay))
    senders;
  let bottleneck, _ = Topology.Builder.add_duplex b sw receiver ~capacity ~delay in
  { sb_topo = Topology.Builder.finish b; senders; receiver; bottleneck }

type three_link_pooling = {
  tl_topo : Topology.t;
  src1 : int;
  src2 : int;
  sink : int;
  top : int;
  bottom : int;
  middle : int;
  tl_paths1 : int list list;
  tl_paths2 : int list list;
}

let three_link_pooling ?(middle_capacity = gbps 5.) () =
  let delay = usec 2. in
  let b = Topology.Builder.create () in
  let sw = Topology.Builder.add_switch b ~label:"sw" () in
  let src1 = Topology.Builder.add_host b ~label:"src1" () in
  let src2 = Topology.Builder.add_host b ~label:"src2" () in
  let sink = Topology.Builder.add_host b ~label:"sink" () in
  let access = gbps 100. in
  let a1, _ = Topology.Builder.add_duplex b src1 sw ~capacity:access ~delay in
  let a2, _ = Topology.Builder.add_duplex b src2 sw ~capacity:access ~delay in
  (* Three parallel links from the switch to the sink play the roles of the
     top (5 Gbps, flow 1 only), bottom (3 Gbps, flow 2 only) and middle
     (shared, variable capacity) links of Figure 10; sub-flow paths are
     pinned explicitly, not routed. *)
  let top = Topology.Builder.add_link b ~src:sw ~dst:sink ~capacity:(gbps 5.) ~delay in
  let bottom =
    Topology.Builder.add_link b ~src:sw ~dst:sink ~capacity:(gbps 3.) ~delay
  in
  let middle =
    Topology.Builder.add_link b ~src:sw ~dst:sink ~capacity:middle_capacity ~delay
  in
  ignore (Topology.Builder.add_link b ~src:sink ~dst:sw ~capacity:access ~delay);
  {
    tl_topo = Topology.Builder.finish b;
    src1;
    src2;
    sink;
    top;
    bottom;
    middle;
    tl_paths1 = [ [ a1; top ]; [ a1; middle ] ];
    tl_paths2 = [ [ a2; bottom ]; [ a2; middle ] ];
  }
