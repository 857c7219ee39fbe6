module Topology = Nf_topo.Topology

(* Hop distances to [dst], by BFS over a reverse adjacency built here. *)
let distances_to topo ~dst =
  let n = Topology.n_nodes topo in
  let rev = Array.make n [] in
  Array.iter
    (fun (l : Topology.link) -> rev.(l.dst) <- l.link_id :: rev.(l.dst))
    (Topology.links topo);
  let dist = Array.make n max_int in
  dist.(dst) <- 0;
  let queue = Queue.create () in
  Queue.add dst queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun lid ->
        let l = Topology.link topo lid in
        if dist.(l.src) = max_int then begin
          dist.(l.src) <- dist.(v) + 1;
          Queue.add l.src queue
        end)
      rev.(v)
  done;
  dist

let all_shortest_paths topo ~src ~dst =
  if src = dst then [ [] ]
  else begin
    let dist = distances_to topo ~dst in
    if dist.(src) = max_int then []
    else begin
      let rec extend at =
        if at = dst then [ [] ]
        else
          List.concat_map
            (fun lid ->
              let l = Topology.link topo lid in
              if dist.(l.dst) <> max_int && dist.(l.dst) + 1 = dist.(at) then
                List.map (fun tail -> lid :: tail) (extend l.dst)
              else [])
            (Topology.out_links topo at)
      in
      extend src
    end
  end

let ecmp_path topo ~src ~dst ~hash =
  match all_shortest_paths topo ~src ~dst with
  | [] -> invalid_arg "Ecmp_enum.ecmp_path: destination unreachable"
  | paths ->
    let n = List.length paths in
    List.nth paths (((hash mod n) + n) mod n)
