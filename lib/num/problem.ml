(* NUM problem instances, now delta-capable: groups can arrive and depart
   after construction (the always-on allocation service applies thousands
   of such events per second). Mutations go to a ledger of group entries
   keyed by stable handles (gids); the dense flow/group index arrays and
   the sparse [Incidence.t] the solvers iterate over are a compiled
   snapshot, rebuilt lazily at the next read ([commit]) rather than per
   event — N arrivals followed by one solve cost one rebuild. See
   DESIGN.md "Serve & delta API". *)

type group_spec = { utility : Utility.t; paths : int array list }

let single_path utility path = { utility; paths = [ path ] }

(* One ledger row per group ever added. [epaths] is validated and copied
   at entry creation and never mutated afterwards, so compiled snapshots
   can share the arrays. A removed group is tombstoned ([alive = false])
   and physically dropped at the next commit (compaction). [slot] is the
   entry's index in [entries], which a compaction rewrites in place: the
   dense group id once the ledger is clean. *)
type entry = {
  gid : int;  (* stable handle, monotonically assigned *)
  utility : Utility.t;
  epaths : int array array;
  mutable alive : bool;
  mutable slot : int;
}

type t = {
  capacities : float array;
      (* live; fixed length for the problem's life; shared with every
         compiled incidence *)
  (* compiled snapshot: exactly the dense structure solvers iterate over;
     the group <-> flow maps are the incidence's *)
  mutable flow_paths : int array array;  (* flow -> link ids *)
  mutable utilities : Utility.t array;  (* group -> utility *)
  mutable incidence : Incidence.t;
  mutable topo_gen : int;  (* bumped on every commit that recompiled *)
  mutable dirty : bool;  (* ledger changed since the last compile *)
  (* ledger *)
  mutable entries : entry array;  (* slots 0..n_entries-1; insertion order *)
  mutable n_entries : int;
  mutable next_gid : int;
  by_gid : (int, entry) Hashtbl.t;
      (* gid -> entry, for every entry in [entries]: a commit removes
         only the dropped gids, and the survivors' slots change in their
         entries, not here *)
  filler : entry;  (* dummy for the growable array's tail *)
}

let validate_path ~ctx ~n_links path =
  if Array.length path = 0 then invalid_arg (ctx ^ ": empty path");
  Array.iter
    (fun lid ->
      if lid < 0 || lid >= n_links then
        invalid_arg (ctx ^ ": link id out of range"))
    path

let entry_of_spec ~ctx ~n_links ~gid spec =
  if List.is_empty spec.paths then invalid_arg (ctx ^ ": group with no paths");
  let epaths =
    Array.of_list
      (List.map
         (fun path ->
           validate_path ~ctx ~n_links path;
           Array.copy path)
         spec.paths)
  in
  { gid; utility = spec.utility; epaths; alive = true; slot = -1 }

(* ------------------------------------------------------------------ *)
(* Compile: rebuild the dense snapshot (and the sparse incidence) from
   the live ledger entries. Flows are numbered group-major in ledger
   order, exactly the layout [Incidence.create] requires. The snapshot
   is the flow paths, the utilities and the incidence: the incidence's
   [grp_ptr]/[grp_flows]/[group_of_flow] are the only group <-> flow
   maps ([group_of_flow] is built here and handed over, not copied),
   and the build needs no link-sized scratch. O(flows + nnz + links) —
   shared by [create] and the delta path, so batch construction and
   churn maintenance exercise one code route. *)

let compile t =
  let n_groups = t.n_entries in
  let total = ref 0 in
  for s = 0 to n_groups - 1 do
    total := !total + Array.length t.entries.(s).epaths
  done;
  let n_flows = !total in
  let flow_paths = Array.make n_flows [||] in
  let group_of_flow = Array.make n_flows 0 in
  let utilities = Array.init n_groups (fun g -> t.entries.(g).utility) in
  let idx = ref 0 in
  for g = 0 to n_groups - 1 do
    let e = t.entries.(g) in
    for k = 0 to Array.length e.epaths - 1 do
      flow_paths.(!idx) <- e.epaths.(k);
      group_of_flow.(!idx) <- g;
      incr idx
    done
  done;
  t.flow_paths <- flow_paths;
  t.utilities <- utilities;
  t.incidence <-
    Incidence.create ~caps:t.capacities ~paths:flow_paths ~group_of_flow ~n_groups;
  t.topo_gen <- t.topo_gen + 1;
  t.dirty <- false

let commit t =
  if t.dirty then begin
    (* Compaction: drop tombstoned entries, preserving insertion order,
       so slot index = dense group id for the compiled snapshot. A
       survivor's new slot is an int store in its entry; only the
       dropped gids leave the table. *)
    let kept = ref 0 in
    for s = 0 to t.n_entries - 1 do
      let e = t.entries.(s) in
      if e.alive then begin
        t.entries.(!kept) <- e;
        e.slot <- !kept;
        incr kept
      end
      else Hashtbl.remove t.by_gid e.gid
    done;
    (* Unpin the dropped entries' memory. *)
    for s = !kept to t.n_entries - 1 do
      t.entries.(s) <- t.filler
    done;
    t.n_entries <- !kept;
    compile t
  end

let[@inline] force t = if t.dirty then commit t

(* ------------------------------------------------------------------ *)
(* Construction *)

(* A capacity is a positive, finite rate. [c > 0.] alone lets [infinity]
   through, and an infinite link never saturates: xWI's price on it
   never settles and the KKT residual turns NaN. *)
let valid_cap c = Float.is_finite c && c > 0.

let validate_caps caps =
  Array.iteri
    (fun i c ->
      if not (valid_cap c) then
        invalid_arg
          (Printf.sprintf "Problem.create: capacity %d not positive and finite" i))
    caps

let create_groups ~caps ~groups =
  validate_caps caps;
  let capacities = Array.copy caps in
  let n_links = Array.length capacities in
  let n = Array.length groups in
  let filler =
    {
      gid = -1;
      utility = Utility.proportional_fair ();
      epaths = [||];
      alive = false;
      slot = -1;
    }
  in
  let entries =
    Array.init (Stdlib.max n 1) (fun g ->
        if g < n then entry_of_spec ~ctx:"Problem.create" ~n_links ~gid:g groups.(g)
        else filler)
  in
  let by_gid = Hashtbl.create (Stdlib.max n 16) in
  for g = 0 to n - 1 do
    entries.(g).slot <- g;
    Hashtbl.replace by_gid entries.(g).gid entries.(g)
  done;
  let t =
    {
      capacities;
      flow_paths = [||];
      utilities = [||];
      incidence =
        Incidence.create ~caps:capacities ~paths:[||] ~group_of_flow:[||]
          ~n_groups:0;
      topo_gen = 0;
      dirty = false;
      entries;
      n_entries = n;
      next_gid = n;
      by_gid;
      filler;
    }
  in
  compile t;
  t

let create ~caps ~groups =
  if List.is_empty groups then invalid_arg "Problem.create: no groups";
  create_groups ~caps ~groups:(Array.of_list groups)

(* ------------------------------------------------------------------ *)
(* Delta interface *)

let add_group t spec =
  let e =
    entry_of_spec ~ctx:"Problem.add_group" ~n_links:(Array.length t.capacities)
      ~gid:t.next_gid spec
  in
  t.next_gid <- t.next_gid + 1;
  if t.n_entries = Array.length t.entries then begin
    let grown = Array.make (Stdlib.max 4 (2 * t.n_entries)) t.filler in
    Array.blit t.entries 0 grown 0 t.n_entries;
    t.entries <- grown
  end;
  t.entries.(t.n_entries) <- e;
  e.slot <- t.n_entries;
  Hashtbl.replace t.by_gid e.gid e;
  t.n_entries <- t.n_entries + 1;
  t.dirty <- true;
  e.gid

let remove_group t gid =
  match Hashtbl.find_opt t.by_gid gid with
  | None -> invalid_arg (Printf.sprintf "Problem.remove_group: unknown gid %d" gid)
  | Some e ->
    if not e.alive then
      invalid_arg (Printf.sprintf "Problem.remove_group: gid %d already removed" gid)
    else begin
      e.alive <- false;
      t.dirty <- true
    end

let group_index t gid =
  force t;
  match Hashtbl.find_opt t.by_gid gid with None -> None | Some e -> Some e.slot

let dirty t = t.dirty

let generation t =
  force t;
  t.topo_gen

(* ------------------------------------------------------------------ *)
(* Capacities: the array is live (Figure 10 changes link speeds mid-run)
   and every compiled incidence shares it, so a write is seen by the
   next kernel call with nothing to announce. *)

let caps t = t.capacities

let set_cap t l c =
  if l < 0 || l >= Array.length t.capacities then
    invalid_arg "Problem.set_cap: link id out of range";
  if not (valid_cap c) then
    invalid_arg "Problem.set_cap: capacity not positive and finite";
  t.capacities.(l) <- c

(* ------------------------------------------------------------------ *)
(* Compiled-snapshot accessors (all force a pending commit first) *)

let n_links t = Array.length t.capacities

let n_flows t =
  force t;
  t.incidence.Incidence.n_flows

let n_groups t =
  force t;
  t.incidence.Incidence.n_groups

let flow_path t i =
  force t;
  t.flow_paths.(i)

let flow_group t i =
  force t;
  t.incidence.Incidence.group_of_flow.(i)

let path_len t i =
  force t;
  Array.length t.flow_paths.(i)

let group_utility t g =
  force t;
  t.utilities.(g)

let utilities t =
  force t;
  t.utilities

let link_flows t l =
  force t;
  let inc = t.incidence in
  Array.sub inc.Incidence.col_rows inc.Incidence.col_ptr.(l)
    (Incidence.link_degree inc l)

let incidence t =
  force t;
  t.incidence

(* Path prices, link loads and group rates are the incidence's sweeps
   over the current snapshot. The sweeps index without bounds checks, and
   these entry points take ids and arrays from any caller, so they check
   them first. *)

let check ok msg = if not ok then invalid_arg msg

let group_rate t ~rates g =
  force t;
  let inc = t.incidence in
  check
    (g >= 0 && g < inc.Incidence.n_groups
    && Array.length rates >= inc.Incidence.n_flows)
    "Problem.group_rate: group id or rates length";
  Incidence.group_rate inc ~rates g

let group_rates_into t ~rates out =
  force t;
  let inc = t.incidence in
  check
    (Array.length rates >= inc.Incidence.n_flows
    && Array.length out >= inc.Incidence.n_groups)
    "Problem.group_rates_into: array length";
  Incidence.group_rates_into inc ~rates ~out

let link_loads_into t ~rates loads =
  force t;
  let inc = t.incidence in
  check
    (Array.length rates >= inc.Incidence.n_flows
    && Array.length loads >= inc.Incidence.n_links)
    "Problem.link_loads_into: array length";
  Incidence.link_loads_into inc ~rates ~out:loads

let path_price t ~prices i =
  force t;
  let inc = t.incidence in
  check
    (i >= 0 && i < inc.Incidence.n_flows
    && Array.length prices >= inc.Incidence.n_links)
    "Problem.path_price: flow id or prices length";
  Incidence.path_price inc ~prices i

let is_single_path t =
  force t;
  t.incidence.Incidence.singleton

let feasible t ~rates =
  force t;
  Array.for_all (fun x -> x >= 0.) rates
  &&
  let loads = Array.make (Array.length t.capacities) 0. in
  link_loads_into t ~rates loads;
  let ok = ref true in
  Array.iteri
    (fun l load -> if load > t.capacities.(l) *. (1. +. 1e-6) then ok := false)
    loads;
  !ok
