(* Sparse flow×link incidence core: the flat data layout every hot NUM
   kernel (xWI sweeps, water-filling, load/price accumulation) iterates
   over. A [Problem.t] patches one store of these arrays in place at
   every commit, and a batch build is the same append onto an empty
   store; see DESIGN.md "Sparse NUM core". *)

(* The working set of the NUM kernels is plain [float array]s, which
   OCaml stores unboxed: the state's prices, rates and weights are the
   vectors the sweeps read and write. *)
type vec = float array

let vec n : vec = Array.make n 0.

let vec_of_array (a : float array) : vec = Array.copy a

type t = {
  n_links : int;
  n_flows : int;
  n_groups : int;
  nnz : int;
  row_ptr : int array;
  row_cols : int array;
  col_ptr : int array;
  col_rows : int array;
  grp_ptr : int array;
  grp_flows : int array;
  group_of_flow : int array;
  singleton : bool;
  caps : float array;
}

(* ------------------------------------------------------------------ *)
(* The store: the snapshot arrays, sized with headroom, that a sequence
   of snapshots is patched in. A snapshot ([seal]) is a fresh record over
   the store's arrays and their current counts, so it is valid only
   until the store is next patched. Every array holds its live prefix;
   past it, only capacity. *)

type store = {
  s_caps : float array;
  mutable s_flows : int;
  mutable s_groups : int;
  mutable s_nnz : int;
  mutable s_sealed : int;  (* flows [0, s_sealed) are in the CSC *)
  mutable s_first_dead : int;  (* lowest group [drop_group] marked, or max_int *)
  mutable s_row_ptr : int array;  (* >= s_flows + 1 *)
  mutable s_row_cols : int array;  (* >= s_nnz *)
  s_col_ptr : int array;  (* n_links + 1 *)
  mutable s_col_rows : int array;  (* >= s_nnz, so a seal always has room *)
  s_col_next : int array;
      (* n_links, all zero between calls: [compact]'s count of the
         entries each column loses, [seal]'s of those it gains, then its
         fill cursors *)
  mutable s_grp_ptr : int array;  (* >= s_groups + 1 *)
  mutable s_grp_flows : int array;  (* >= s_flows; the identity: flows are group-major *)
  mutable s_group_of_flow : int array;  (* >= s_flows *)
  mutable s_dead : bool array;  (* groups [drop_group] marked; all false after [compact] *)
  mutable s_remap : int array;  (* [compact]'s scratch: old flow id -> new, -1 if dropped *)
}

let store ~caps =
  let n_links = Array.length caps in
  {
    s_caps = caps;
    s_flows = 0;
    s_groups = 0;
    s_nnz = 0;
    s_sealed = 0;
    s_first_dead = max_int;
    s_row_ptr = [| 0 |];
    s_row_cols = [||];
    s_col_ptr = Array.make (n_links + 1) 0;
    s_col_rows = [||];
    s_col_next = Array.make n_links 0;
    s_grp_ptr = [| 0 |];
    s_grp_flows = [||];
    s_group_of_flow = [||];
    s_dead = [||];
    s_remap = [||];
  }

(* [a] if it holds [need] elements, else a copy of its first [live] in
   an array of [need] or twice [a]'s length, whichever is more: a batch
   build fills an empty store to fit, and a population that grows a flow
   at a time reallocates only now and then. *)
let grow a ~live ~fill need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (Stdlib.max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 live;
    b
  end

(* Whether the traversal at [k] of flow [i]'s row repeats a link the row
   crossed before: the incidence is a set, so a column lists the flow
   once. Paths are short, so the scan is a few compares. *)
let[@inline] repeat row_ptr row_cols i k =
  let l = row_cols.(k) and j = ref row_ptr.(i) in
  while !j < k && not (Int.equal row_cols.(!j) l) do
    incr j
  done;
  !j < k

let check_path ~ctx ~n_links path =
  for k = 0 to Array.length path - 1 do
    let l = path.(k) in
    if l < 0 || l >= n_links then invalid_arg (ctx ^ ": link id out of range")
  done

(* Room for [flows] more flows over [nnz] more row entries in [groups]
   more groups. [col_rows] is kept as long as [row_cols]: a column lists
   a flow at most once per traversal. *)
let reserve s ~flows ~nnz ~groups =
  let f = s.s_flows + flows and k = s.s_nnz + nnz and g = s.s_groups + groups in
  s.s_row_ptr <- grow s.s_row_ptr ~live:(s.s_flows + 1) ~fill:0 (f + 1);
  s.s_row_cols <- grow s.s_row_cols ~live:s.s_nnz ~fill:0 k;
  s.s_col_rows <-
    grow s.s_col_rows ~live:s.s_col_ptr.(Array.length s.s_caps) ~fill:0 k;
  s.s_grp_ptr <- grow s.s_grp_ptr ~live:(s.s_groups + 1) ~fill:0 (g + 1);
  s.s_grp_flows <- grow s.s_grp_flows ~live:s.s_flows ~fill:0 f;
  s.s_group_of_flow <- grow s.s_group_of_flow ~live:s.s_flows ~fill:0 f

(* A new, empty last group, in reserved room. *)
let open_group s =
  let g = s.s_groups in
  s.s_grp_ptr.(g + 1) <- s.s_flows;
  s.s_groups <- g + 1

(* Flow [s_flows] of the last group, in reserved room: its CSR row at the
   tail (path order, repeats kept: a loads sweep adds the flow's rate
   once per traversal, exactly like the dense reference). Its CSC
   entries wait for [seal]. *)
let push_flow s path =
  let i = s.s_flows and base = s.s_nnz and len = Array.length path in
  for k = 0 to len - 1 do
    s.s_row_cols.(base + k) <- path.(k)
  done;
  s.s_row_ptr.(i + 1) <- base + len;
  s.s_grp_flows.(i) <- i;
  s.s_group_of_flow.(i) <- s.s_groups - 1;
  s.s_grp_ptr.(s.s_groups) <- i + 1;
  s.s_flows <- i + 1;
  s.s_nnz <- base + len

(* Loops, not [Array.iter]: a commit appends every new group, and the
   closures would be allocated on each call. *)
let append_group s paths =
  let n_links = Array.length s.s_caps and nnz = ref 0 in
  for p = 0 to Array.length paths - 1 do
    check_path ~ctx:"Incidence.append_group" ~n_links paths.(p);
    nnz := !nnz + Array.length paths.(p)
  done;
  reserve s ~flows:(Array.length paths) ~nnz:!nnz ~groups:1;
  open_group s;
  for p = 0 to Array.length paths - 1 do
    push_flow s paths.(p)
  done

let drop_group s g =
  if g < 0 || g >= s.s_groups then invalid_arg "Incidence.drop_group: group id out of range";
  if s.s_sealed < s.s_flows then invalid_arg "Incidence.drop_group: appends not sealed";
  s.s_dead <- grow s.s_dead ~live:(Array.length s.s_dead) ~fill:false s.s_groups;
  s.s_dead.(g) <- true;
  if g < s.s_first_dead then s.s_first_dead <- g

(* The compaction pass. From the first dropped group on, every surviving
   group moves down over the dropped ones, in order: its flows take the
   next dense ids and its CSR rows the next row slots. A row or pointer
   is always written at an index no greater than the one just read, so
   the moves run in place. A dropped flow's row counts, per link, the
   entry its column loses. One flat sweep over the CSC then renumbers
   every entry and squeezes out the dropped ones; renumbering keeps the
   order, so each column stays ascending. A running sum of the losses
   moves the column starts. [grp_flows] is the identity and its prefix
   stays so. *)
let compact s =
  let g0 = s.s_first_dead in
  if g0 < s.s_groups then begin
    s.s_remap <- grow s.s_remap ~live:0 ~fill:0 s.s_flows;
    let row_ptr = s.s_row_ptr
    and row_cols = s.s_row_cols
    and grp_ptr = s.s_grp_ptr
    and group_of_flow = s.s_group_of_flow
    and dead = s.s_dead
    and remap = s.s_remap
    and lost = s.s_col_next in
    let f0 = grp_ptr.(g0) in
    for f = 0 to f0 - 1 do
      remap.(f) <- f
    done;
    let gw = ref g0 and fw = ref f0 and kw = ref row_ptr.(f0) in
    let f_lo = ref f0 and k_lo = ref row_ptr.(f0) in
    for g = g0 to s.s_groups - 1 do
      let f_hi = grp_ptr.(g + 1) in
      if dead.(g) then begin
        dead.(g) <- false;
        for f = !f_lo to f_hi - 1 do
          let k_hi = row_ptr.(f + 1) in
          for k = !k_lo to k_hi - 1 do
            if not (repeat row_ptr row_cols f k) then begin
              let l = row_cols.(k) in
              lost.(l) <- lost.(l) + 1
            end
          done;
          k_lo := k_hi;
          remap.(f) <- -1
        done
      end
      else begin
        for f = !f_lo to f_hi - 1 do
          let k_hi = row_ptr.(f + 1) in
          for k = !k_lo to k_hi - 1 do
            row_cols.(!kw) <- row_cols.(k);
            incr kw
          done;
          k_lo := k_hi;
          remap.(f) <- !fw;
          group_of_flow.(!fw) <- !gw;
          incr fw;
          row_ptr.(!fw) <- !kw
        done;
        incr gw;
        grp_ptr.(!gw) <- !fw
      end;
      f_lo := f_hi
    done;
    let n_links = Array.length s.s_caps in
    let col_ptr = s.s_col_ptr and col_rows = s.s_col_rows in
    let w = ref 0 in
    for k = 0 to col_ptr.(n_links) - 1 do
      let f' = remap.(col_rows.(k)) in
      if f' >= 0 then begin
        col_rows.(!w) <- f';
        incr w
      end
    done;
    let gone = ref 0 in
    for l = 0 to n_links - 1 do
      gone := !gone + lost.(l);
      lost.(l) <- 0;
      col_ptr.(l + 1) <- col_ptr.(l + 1) - !gone
    done;
    s.s_groups <- !gw;
    s.s_flows <- !fw;
    s.s_nnz <- !kw;
    s.s_sealed <- !fw;
    s.s_first_dead <- max_int
  end

(* The append pass's CSC half: merge the flows pushed since the last
   seal into the columns. A counting sweep over their rows gives each
   column's new entries. Then, from the last column leftwards, each
   column end moves right by the new entries of the columns up to it,
   and at each column that gains entries, the old entries right of it
   move right as one block, which leaves the gap for its new entries at
   its end. A new flow's id is above every old one, so filling the gaps
   in flow order keeps each column ascending. The walk stops at the
   leftmost column that gains entries: the columns before it do not
   move. [s_col_next] holds the counts, then the fill cursors, and is
   all zero again at the end. *)
let seal s =
  let n_links = Array.length s.s_caps and f0 = s.s_sealed and n_flows = s.s_flows in
  if f0 < n_flows then begin
    let row_ptr = s.s_row_ptr
    and row_cols = s.s_row_cols
    and col_ptr = s.s_col_ptr
    and next = s.s_col_next in
    let added = ref 0 in
    for i = f0 to n_flows - 1 do
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        if not (repeat row_ptr row_cols i k) then begin
          let l = row_cols.(k) in
          next.(l) <- next.(l) + 1;
          incr added
        end
      done
    done;
    let col_rows = s.s_col_rows in
    let shift = ref !added and block_end = ref col_ptr.(n_links) and l = ref (n_links - 1) in
    while !shift > 0 do
      let hi = col_ptr.(!l + 1) in
      col_ptr.(!l + 1) <- hi + !shift;
      let gained = next.(!l) in
      if gained > 0 then begin
        for k = !block_end - 1 downto hi do
          col_rows.(k + !shift) <- col_rows.(k)
        done;
        block_end := hi;
        shift := !shift - gained;
        next.(!l) <- hi + !shift
      end;
      decr l
    done;
    for i = f0 to n_flows - 1 do
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        if not (repeat row_ptr row_cols i k) then begin
          let l = row_cols.(k) in
          col_rows.(next.(l)) <- i;
          next.(l) <- next.(l) + 1
        end
      done
    done;
    for k = row_ptr.(f0) to row_ptr.(n_flows) - 1 do
      next.(row_cols.(k)) <- 0
    done;
    s.s_sealed <- n_flows
  end;
  {
    n_links;
    n_flows;
    n_groups = s.s_groups;
    nnz = s.s_nnz;
    row_ptr = s.s_row_ptr;
    row_cols = s.s_row_cols;
    col_ptr = s.s_col_ptr;
    col_rows = s.s_col_rows;
    grp_ptr = s.s_grp_ptr;
    grp_flows = s.s_grp_flows;
    group_of_flow = s.s_group_of_flow;
    singleton = Int.equal s.s_groups n_flows;
    caps = s.s_caps;
  }

(* The batch build is the same append onto an empty store, with room
   reserved once: group [g]'s flows are the run of [g]s in
   [group_of_flow]. *)
let create ~caps ~paths ~group_of_flow ~n_groups =
  let n_links = Array.length caps and n_flows = Array.length paths in
  if Array.length group_of_flow <> n_flows then
    invalid_arg "Incidence.create: group_of_flow length";
  let nnz = ref 0 in
  for i = 0 to n_flows - 1 do
    check_path ~ctx:"Incidence.create" ~n_links paths.(i);
    nnz := !nnz + Array.length paths.(i)
  done;
  let s = store ~caps in
  reserve s ~flows:n_flows ~nnz:!nnz ~groups:n_groups;
  let i = ref 0 in
  for g = 0 to n_groups - 1 do
    open_group s;
    while !i < n_flows && Int.equal group_of_flow.(!i) g do
      push_flow s paths.(!i);
      incr i
    done
  done;
  if !i < n_flows then
    invalid_arg "Incidence.create: group ids out of range or not group-major";
  seal s

let link_degree t l = t.col_ptr.(l + 1) - t.col_ptr.(l)

(* Tight CSR/CSC sweeps shared by every kernel, and the only loop bodies
   for path prices, link loads and group rates outside the test oracle [Reference]. All
   [@nf.hot]: no allocation; indices come straight off the flat index
   arrays. The single-row bodies are [@inline] so the whole-vector sweeps
   built on them stay allocation-free (a float returned by a call that is
   not inlined is boxed). *)

let[@nf.hot][@inline] path_price t ~(prices : vec) i =
  let row_ptr = t.row_ptr and row_cols = t.row_cols in
  let stop = Array.unsafe_get row_ptr (i + 1) in
  let acc = ref 0. in
  for k = Array.unsafe_get row_ptr i to stop - 1 do
    acc := !acc +. Array.unsafe_get prices (Array.unsafe_get row_cols k)
  done;
  !acc

let[@nf.hot] path_prices_into t ~(prices : vec) ~(out : vec) =
  for i = 0 to t.n_flows - 1 do
    Array.unsafe_set out i (path_price t ~prices i)
  done

let[@nf.hot] link_loads_into t ~(rates : vec) ~(out : vec) =
  Array.fill out 0 (Array.length out) 0.;
  let row_ptr = t.row_ptr and row_cols = t.row_cols in
  for i = 0 to t.n_flows - 1 do
    let x = Array.unsafe_get rates i in
    let stop = Array.unsafe_get row_ptr (i + 1) in
    for k = Array.unsafe_get row_ptr i to stop - 1 do
      let l = Array.unsafe_get row_cols k in
      Array.unsafe_set out l (Array.unsafe_get out l +. x)
    done
  done

let[@nf.hot][@inline] group_rate t ~(rates : vec) g =
  let grp_ptr = t.grp_ptr and grp_flows = t.grp_flows in
  let stop = Array.unsafe_get grp_ptr (g + 1) in
  let acc = ref 0. in
  for k = Array.unsafe_get grp_ptr g to stop - 1 do
    acc := !acc +. Array.unsafe_get rates (Array.unsafe_get grp_flows k)
  done;
  !acc

let[@nf.hot] group_rates_into t ~(rates : vec) ~(out : vec) =
  for g = 0 to t.n_groups - 1 do
    Array.unsafe_set out g (group_rate t ~rates g)
  done
