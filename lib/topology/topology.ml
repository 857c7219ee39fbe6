type node_kind = Host | Switch

type node = { node_id : int; kind : node_kind; label : string }

type link = {
  link_id : int;
  src : int;
  dst : int;
  capacity : float;
  delay : float;
}

type t = {
  node_arr : node array;
  link_arr : link array;
  out : int list array;  (* node id -> link ids, in insertion order *)
}

module Builder = struct
  type topology = t

  type t = {
    mutable rev_nodes : node list;
    mutable rev_links : link list;
    mutable next_node : int;
    mutable next_link : int;
  }

  let create () = { rev_nodes = []; rev_links = []; next_node = 0; next_link = 0 }

  let add_node b kind label =
    let node_id = b.next_node in
    let label = if label = "" then Printf.sprintf "n%d" node_id else label in
    b.rev_nodes <- { node_id; kind; label } :: b.rev_nodes;
    b.next_node <- node_id + 1;
    node_id

  let add_host b ?(label = "") () = add_node b Host label

  let add_switch b ?(label = "") () = add_node b Switch label

  let add_link b ~src ~dst ~capacity ~delay =
    if src < 0 || src >= b.next_node || dst < 0 || dst >= b.next_node then
      invalid_arg "Topology.Builder.add_link: unknown node";
    if src = dst then invalid_arg "Topology.Builder.add_link: self loop";
    if not (capacity > 0.) then
      invalid_arg "Topology.Builder.add_link: capacity must be positive";
    if delay < 0. then invalid_arg "Topology.Builder.add_link: negative delay";
    let link_id = b.next_link in
    b.rev_links <- { link_id; src; dst; capacity; delay } :: b.rev_links;
    b.next_link <- link_id + 1;
    link_id

  let add_duplex b a c ~capacity ~delay =
    let fwd = add_link b ~src:a ~dst:c ~capacity ~delay in
    let bwd = add_link b ~src:c ~dst:a ~capacity ~delay in
    (fwd, bwd)

  let finish b : topology =
    let node_arr = Array.of_list (List.rev b.rev_nodes) in
    let link_arr = Array.of_list (List.rev b.rev_links) in
    let out = Array.make (Array.length node_arr) [] in
    Array.iter (fun l -> out.(l.src) <- l.link_id :: out.(l.src)) link_arr;
    Array.iteri (fun i ls -> out.(i) <- List.rev ls) out;
    { node_arr; link_arr; out }
end

let n_nodes t = Array.length t.node_arr

let n_links t = Array.length t.link_arr

let node t id = t.node_arr.(id)

let link t id = t.link_arr.(id)

let links t = t.link_arr

let out_links t id = t.out.(id)

let find_link t ~src ~dst =
  let rec search = function
    | [] -> None
    | lid :: rest -> if (link t lid).dst = dst then Some lid else search rest
  in
  search t.out.(src)

let path_is_valid t ~src ~dst path =
  let rec walk at = function
    | [] -> at = dst
    | lid :: rest ->
      lid >= 0 && lid < n_links t
      && (link t lid).src = at
      && walk (link t lid).dst rest
  in
  (match path with [] -> src = dst | _ -> true) && walk src path

let path_min_capacity t path =
  match path with
  | [] -> invalid_arg "Topology.path_min_capacity: empty path"
  | _ -> List.fold_left (fun acc lid -> Float.min acc (link t lid).capacity) infinity path
