module Topology = Nf_topo.Topology

type parking_lot = {
  pl_topo : Topology.t;
  pl_hosts : int array;
  pl_links : int array;
}

let parking_lot ~n_links () =
  if n_links <= 0 then invalid_arg "Fixtures.parking_lot: need at least one link";
  let capacity = Nf_util.Units.gbps 10. and delay = Nf_util.Units.usec 2. in
  let b = Topology.Builder.create () in
  let switches =
    Array.init (n_links + 1) (fun i ->
        Topology.Builder.add_switch b ~label:(Printf.sprintf "sw%d" i) ())
  in
  let pl_hosts =
    Array.init (n_links + 1) (fun i ->
        Topology.Builder.add_host b ~label:(Printf.sprintf "h%d" i) ())
  in
  Array.iteri
    (fun i h ->
      ignore
        (Topology.Builder.add_duplex b h switches.(i) ~capacity:(4. *. capacity)
           ~delay))
    pl_hosts;
  let pl_links =
    Array.init n_links (fun i ->
        fst (Topology.Builder.add_duplex b switches.(i) switches.(i + 1) ~capacity ~delay))
  in
  { pl_topo = Topology.Builder.finish b; pl_hosts; pl_links }
