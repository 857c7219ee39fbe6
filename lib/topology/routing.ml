(* Memoized ECMP router.

   The router precomputes the reverse adjacency once and, per destination
   (computed on first use, then cached), the hop distances to it plus the
   number of shortest paths from every node. Selecting the [hash]-th path
   is then a single walk: at each node, the shortest-path counts of the
   viable next hops say which branch the index falls into. The walk
   visits next hops in [Topology.out_links] order, so path [i] is the
   [i]-th of the shortest paths enumerated depth-first in that order. *)

type router = {
  r_topo : Topology.t;
  r_rev_ptr : int array;  (* node -> range into r_rev_lids *)
  r_rev_lids : int array;  (* ids of links entering the node *)
  r_tables : (int, int array * int array) Hashtbl.t;
      (* dst -> (dist_to_dst per node, shortest-path count per node) *)
}

let router topo =
  let n = Topology.n_nodes topo in
  let links = Topology.links topo in
  let rev_ptr = Array.make (n + 1) 0 in
  Array.iter
    (fun (l : Topology.link) -> rev_ptr.(l.dst + 1) <- rev_ptr.(l.dst + 1) + 1)
    links;
  for v = 0 to n - 1 do
    rev_ptr.(v + 1) <- rev_ptr.(v + 1) + rev_ptr.(v)
  done;
  let rev_lids = Array.make (Stdlib.max (Array.length links) 1) 0 in
  let cursor = Array.copy rev_ptr in
  Array.iter
    (fun (l : Topology.link) ->
      rev_lids.(cursor.(l.dst)) <- l.link_id;
      cursor.(l.dst) <- cursor.(l.dst) + 1)
    links;
  { r_topo = topo; r_rev_ptr = rev_ptr; r_rev_lids = rev_lids; r_tables = Hashtbl.create 64 }

let router_table r ~dst =
  match Hashtbl.find_opt r.r_tables dst with
  | Some t -> t
  | None ->
    let n = Topology.n_nodes r.r_topo in
    let dist = Array.make n max_int in
    let order = Array.make n 0 in
    dist.(dst) <- 0;
    order.(0) <- dst;
    let n_order = ref 1 in
    let head = ref 0 in
    (* BFS from [dst] over the reverse adjacency: [order] ends up sorted
       by non-decreasing distance to [dst]. *)
    while !head < !n_order do
      let v = order.(!head) in
      incr head;
      for k = r.r_rev_ptr.(v) to r.r_rev_ptr.(v + 1) - 1 do
        let l = Topology.link r.r_topo r.r_rev_lids.(k) in
        if dist.(l.src) = max_int then begin
          dist.(l.src) <- dist.(v) + 1;
          order.(!n_order) <- l.src;
          incr n_order
        end
      done
    done;
    (* Shortest-path counts, in BFS order so every next hop (one hop
       closer to [dst]) is already final when a node is processed. *)
    let count = Array.make n 0 in
    count.(dst) <- 1;
    for o = 1 to !n_order - 1 do
      let v = order.(o) in
      let d = dist.(v) in
      let acc = ref 0 in
      List.iter
        (fun lid ->
          let l = Topology.link r.r_topo lid in
          if dist.(l.dst) <> max_int && dist.(l.dst) = d - 1 then
            acc := !acc + count.(l.dst))
        (Topology.out_links r.r_topo v);
      count.(v) <- !acc
    done;
    let t = (dist, count) in
    Hashtbl.add r.r_tables dst t;
    t

let ecmp_width r ~src ~dst =
  if src = dst then 1 else (snd (router_table r ~dst)).(src)

let ecmp_path_fast r ~src ~dst ~hash =
  if src = dst then []
  else begin
    let dist, count = router_table r ~dst in
    if dist.(src) = max_int then
      invalid_arg "Routing.ecmp_path_fast: destination unreachable";
    let total = count.(src) in
    let idx = ref (((hash mod total) + total) mod total) in
    let rec walk at acc =
      if at = dst then List.rev acc
      else begin
        let d = dist.(at) in
        let rec pick = function
          | [] -> assert false  (* count.(at) > idx >= 0 guarantees a hit *)
          | lid :: rest ->
            let l = Topology.link r.r_topo lid in
            if dist.(l.dst) <> max_int && dist.(l.dst) = d - 1 then begin
              let c = count.(l.dst) in
              if !idx < c then (lid, l.dst)
              else begin
                idx := !idx - c;
                pick rest
              end
            end
            else pick rest
        in
        let lid, next = pick (Topology.out_links r.r_topo at) in
        walk next (lid :: acc)
      end
    in
    walk src []
  end
