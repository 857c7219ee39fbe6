type t = {
  mutable buf : int array;  (* capacity a power of two *)
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create () = { buf = Array.make 16 0; head = 0; len = 0 }

let[@inline] length r = r.len

(* Only called on a full ring: unrolls it into a buffer twice the size. *)
let[@inline never] grow r =
  let cap = Array.length r.buf in
  let buf = Array.make (2 * cap) 0 in
  for i = 0 to r.len - 1 do
    buf.(i) <- r.buf.((r.head + i) land (cap - 1))
  done;
  r.buf <- buf;
  r.head <- 0

let[@nf.hot] [@inline] push r x =
  if r.len = Array.length r.buf then grow r;
  let buf = r.buf in
  Array.unsafe_set buf ((r.head + r.len) land (Array.length buf - 1)) x;
  r.len <- r.len + 1

let[@inline never] empty_ring () = invalid_arg "Int_ring.pop: empty ring"

let[@nf.hot] [@inline] pop r =
  if r.len = 0 then empty_ring ();
  let buf = r.buf in
  let h = r.head in
  r.head <- (h + 1) land (Array.length buf - 1);
  r.len <- r.len - 1;
  Array.unsafe_get buf h
