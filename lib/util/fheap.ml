(* Structure-of-arrays 4-ary min-heap on float keys with FIFO tie-break.
   [keys] is an unboxed float array; [seqs]/[handles] are parallel int
   arrays, so no store runs the write barrier. Sift-up/down move a hole
   instead of swapping, so each level costs three reads and three
   writes, and nothing is ever boxed. *)

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable handles : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    keys = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    handles = Array.make capacity 0;
    size = 0;
    next_seq = 0;
  }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.keys in
  let new_cap = 2 * cap in
  let keys = Array.make new_cap 0. in
  Array.blit h.keys 0 keys 0 h.size;
  h.keys <- keys;
  let seqs = Array.make new_cap 0 in
  Array.blit h.seqs 0 seqs 0 h.size;
  h.seqs <- seqs;
  let handles = Array.make new_cap 0 in
  Array.blit h.handles 0 handles 0 h.size;
  h.handles <- handles

(* [@inline] on [push]/[top_key]: without it, callers passing a computed
   float key (or consuming the float result) box it at the call boundary
   — the only allocation left on these paths. Inlining keeps the key in a
   register; the closure-converted body itself never allocates. *)
let[@nf.hot] [@inline] push h ~key v =
  if h.size = Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let keys = h.keys and seqs = h.seqs and handles = h.handles in
  (* Sift the hole up: the new element carries the largest seq, so on a
     key tie it stays below the parent (FIFO). *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    if key < keys.(p) then begin
      keys.(!i) <- keys.(p);
      seqs.(!i) <- seqs.(p);
      handles.(!i) <- handles.(p);
      i := p
    end
    else continue := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  handles.(!i) <- v

(* The error branch is an out-of-line cold function, so the inlined check
   is one compare and the [sprintf] never lands on a caller's hot path. *)
let[@inline never] empty_heap op =
  invalid_arg (Printf.sprintf "Fheap.%s: empty heap" op)

let[@inline] check_nonempty h op = if h.size = 0 then empty_heap op

let[@nf.hot] [@inline] top_key h =
  check_nonempty h "top_key";
  h.keys.(0)

let[@nf.hot] [@inline] top h =
  check_nonempty h "top";
  h.handles.(0)

let[@nf.hot] drop h =
  check_nonempty h "drop";
  let n = h.size - 1 in
  h.size <- n;
  let keys = h.keys and seqs = h.seqs and handles = h.handles in
  if n > 0 then begin
    let key = keys.(n) and seq = seqs.(n) and v = handles.(n) in
    (* Sift the hole down from the root, pulling up the smallest of up to
       four children until the relocated last element fits. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c0 = (4 * !i) + 1 in
      if c0 >= n then continue := false
      else begin
        let best = ref c0 in
        let last = if c0 + 3 < n - 1 then c0 + 3 else n - 1 in
        for c = c0 + 1 to last do
          if
            keys.(c) < keys.(!best)
            || (keys.(c) = keys.(!best) && seqs.(c) < seqs.(!best))
          then best := c
        done;
        let b = !best in
        if keys.(b) < key || (keys.(b) = key && seqs.(b) < seq) then begin
          keys.(!i) <- keys.(b);
          seqs.(!i) <- seqs.(b);
          handles.(!i) <- handles.(b);
          i := b
        end
        else continue := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    handles.(!i) <- v
  end

let[@nf.hot] pop h =
  let v = top h in
  drop h;
  v

let clear h = h.size <- 0
