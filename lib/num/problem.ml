(* NUM problem instances, now delta-capable: groups can arrive and depart
   after construction (the always-on allocation service applies thousands
   of such events per second). Mutations go to a ledger of group entries
   keyed by stable handles (gids); the dense utilities and the sparse
   [Incidence.t] the solvers iterate over are a compiled snapshot,
   patched in place at the next read ([commit]) rather than per event:
   one pass compacts the removed groups out of its arrays, one appends
   the new ledger entries, and N arrivals followed by one solve cost one
   patch. See DESIGN.md "Delta problem interface". *)

type group_spec = { utility : Utility.t; paths : int array list }

let single_path utility path = { utility; paths = [ path ] }

(* One ledger row per group ever added. [epaths] is validated and copied
   at entry creation and never mutated afterwards: [flow_path] returns
   its arrays. A removed group is tombstoned ([alive = false]) and
   physically dropped at the next commit (compaction). [slot] is the
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
  (* compiled snapshot: exactly the dense structure solvers iterate over.
     The arrays are owned here, sized with headroom and patched in place
     by [commit]; the group <-> flow maps are the incidence's. *)
  store : Incidence.store;
  mutable utilities : Utility.t array;  (* group -> utility; >= n_groups *)
  mutable incidence : Incidence.t;  (* sealed from [store] at the last commit *)
  mutable topo_gen : int;  (* bumped on every commit that patched *)
  mutable dirty : bool;  (* ledger changed since the last commit *)
  (* ledger *)
  mutable entries : entry array;
      (* slots 0..n_entries-1, insertion order; once clean, slot = dense
         group id *)
  mutable n_entries : int;
  mutable next_gid : int;
  by_gid : (int, entry) Hashtbl.t;
      (* gid -> entry, for every entry in [entries]: a commit removes
         only the dropped gids, and the survivors' slots change in their
         entries, not here *)
  filler : entry;  (* dummy for the growable arrays' tails *)
}

let validate_path ~ctx ~n_links path =
  if Array.length path = 0 then invalid_arg (ctx ^ ": empty path");
  for k = 0 to Array.length path - 1 do
    let lid = path.(k) in
    if lid < 0 || lid >= n_links then invalid_arg (ctx ^ ": link id out of range")
  done

(* Copy the spec's paths into [epaths] from index [k]. Top level and
   closed, so an entry owes its record, its path array and the path
   copies, and no closure or list cell. *)
let rec copy_paths ~ctx ~n_links epaths k = function
  | [] -> ()
  | path :: rest ->
    validate_path ~ctx ~n_links path;
    epaths.(k) <- Array.copy path;
    copy_paths ~ctx ~n_links epaths (k + 1) rest

let entry_of_spec ~ctx ~n_links ~gid spec =
  if List.is_empty spec.paths then invalid_arg (ctx ^ ": group with no paths");
  let epaths = Array.make (List.length spec.paths) [||] in
  copy_paths ~ctx ~n_links epaths 0 spec.paths;
  { gid; utility = spec.utility; epaths; alive = true; slot = -1 }

(* ------------------------------------------------------------------ *)
(* Commit: patch the compiled snapshot in place from the live ledger, in
   two linear passes over the snapshot's own arrays.

   - Compaction: tombstoned entries leave the ledger, preserving
     insertion order, so slot index = dense group id. A survivor's new
     slot is an int store in its entry; only the dropped gids leave the
     table. The dropped snapshot groups are marked in the store, which
     [Incidence.compact] then squeezes out of every index array, and each
     surviving utility moves down with its group.
   - Append: the entries added since the last commit, still alive, take
     the next dense ids: room for all of them reserved at once, their
     utilities at the tail, their flows through [Incidence.append_group],
     and one [Incidence.seal] merges them into the CSC and returns the
     new record.

   Flows are numbered group-major in ledger order, the layout the
   incidence keeps. A one-group delta costs O(nnz + links) plain moves
   and allocates only the new [Incidence.t] record (and an array that
   outgrows its headroom). [create_groups] is the same append onto an
   empty snapshot, so batch construction and churn maintenance run one
   code route. *)

let commit t =
  if t.dirty then begin
    let snapshot = t.incidence.Incidence.n_groups in
    let kept = ref 0 in
    for s = 0 to snapshot - 1 do
      let e = t.entries.(s) in
      if e.alive then begin
        if !kept < s then begin
          t.entries.(!kept) <- e;
          t.utilities.(!kept) <- e.utility;
          e.slot <- !kept
        end;
        incr kept
      end
      else begin
        Hashtbl.remove t.by_gid e.gid;
        Incidence.drop_group t.store s
      end
    done;
    Incidence.compact t.store;
    let survivors = !kept in
    if Array.length t.utilities < t.n_entries then begin
      let grown =
        Array.make
          (Stdlib.max t.n_entries (2 * Array.length t.utilities))
          t.filler.utility
      in
      Array.blit t.utilities 0 grown 0 survivors;
      t.utilities <- grown
    end;
    let flows = ref 0 and nnz = ref 0 and groups = ref 0 in
    for s = snapshot to t.n_entries - 1 do
      let e = t.entries.(s) in
      if e.alive then begin
        incr groups;
        flows := !flows + Array.length e.epaths;
        for k = 0 to Array.length e.epaths - 1 do
          nnz := !nnz + Array.length e.epaths.(k)
        done
      end
    done;
    Incidence.reserve t.store ~flows:!flows ~nnz:!nnz ~groups:!groups;
    for s = snapshot to t.n_entries - 1 do
      let e = t.entries.(s) in
      if e.alive then begin
        t.entries.(!kept) <- e;
        t.utilities.(!kept) <- e.utility;
        e.slot <- !kept;
        Incidence.append_group t.store e.epaths;
        incr kept
      end
      else Hashtbl.remove t.by_gid e.gid
    done;
    (* Unpin the dropped entries and utilities. *)
    for s = !kept to t.n_entries - 1 do
      t.entries.(s) <- t.filler
    done;
    for g = !kept to snapshot - 1 do
      t.utilities.(g) <- t.filler.utility
    done;
    t.n_entries <- !kept;
    t.incidence <- Incidence.seal t.store;
    t.topo_gen <- t.topo_gen + 1;
    t.dirty <- false
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

(* Append a ledger entry; the snapshot takes it at the next commit. *)
let push_entry t ~ctx spec =
  let e =
    entry_of_spec ~ctx ~n_links:(Array.length t.capacities) ~gid:t.next_gid spec
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

(* An empty snapshot, then every group's entry and one commit: the same
   append a delta runs. The commit runs even for no groups, so a new
   problem is at generation 1 either way. *)
let create_groups ~caps ~groups =
  validate_caps caps;
  let capacities = Array.copy caps in
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
  let store = Incidence.store ~caps:capacities in
  let t =
    {
      capacities;
      store;
      utilities = [||];
      incidence = Incidence.seal store;
      topo_gen = 0;
      dirty = true;
      entries = Array.make (Stdlib.max n 4) filler;
      n_entries = 0;
      next_gid = 0;
      by_gid = Hashtbl.create (Stdlib.max n 16);
      filler;
    }
  in
  Array.iter (fun spec -> ignore (push_entry t ~ctx:"Problem.create" spec : int)) groups;
  commit t;
  t

let create ~caps ~groups =
  if List.is_empty groups then invalid_arg "Problem.create: no groups";
  create_groups ~caps ~groups:(Array.of_list groups)

(* ------------------------------------------------------------------ *)
(* Delta interface *)

let add_group t spec = push_entry t ~ctx:"Problem.add_group" spec

(* [find], not [find_opt]: a departure allocates no option. *)
let remove_group t gid =
  match Hashtbl.find t.by_gid gid with
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Problem.remove_group: unknown gid %d" gid)
  | e ->
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

let check ok msg = if not ok then invalid_arg msg

let n_links t = Array.length t.capacities

let n_flows t =
  force t;
  t.incidence.Incidence.n_flows

let n_groups t =
  force t;
  t.incidence.Incidence.n_groups

(* The snapshot's arrays are longer than its counts, so an id is checked
   against the counts, not left to the array bounds. *)
let flow_path t i =
  force t;
  let inc = t.incidence in
  check (i >= 0 && i < inc.Incidence.n_flows) "Problem.flow_path: flow id";
  let g = inc.Incidence.group_of_flow.(i) in
  t.entries.(g).epaths.(i - inc.Incidence.grp_ptr.(g))

let flow_group t i =
  force t;
  let inc = t.incidence in
  check (i >= 0 && i < inc.Incidence.n_flows) "Problem.flow_group: flow id";
  inc.Incidence.group_of_flow.(i)

let path_len t i =
  force t;
  let inc = t.incidence in
  check (i >= 0 && i < inc.Incidence.n_flows) "Problem.path_len: flow id";
  inc.Incidence.row_ptr.(i + 1) - inc.Incidence.row_ptr.(i)

let group_utility t g =
  force t;
  check (g >= 0 && g < t.incidence.Incidence.n_groups) "Problem.group_utility: group id";
  t.utilities.(g)

let utilities t =
  force t;
  t.utilities

let incidence t =
  force t;
  t.incidence

(* Path prices, link loads and group rates are the incidence's sweeps
   over the current snapshot. The sweeps index without bounds checks, and
   these entry points take ids and arrays from any caller, so they check
   them first. *)

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
