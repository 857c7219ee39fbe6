(* Typed hot-barrier good cases: int, bool and float stores, a constant
   constructor of an all-constant variant, a ref bound in the hot body,
   a packet from the pool held by its int id, and a justified waiver.
   Zero hot-barrier findings expected. *)

type mode = Idle | Busy

type slot = { mutable n : int; mutable on : bool; mutable mode : mode; fl : float array }

let[@nf.hot] touch s i =
  s.n <- s.n + 1;
  s.on <- true;
  s.mode <- Busy;
  s.fl.(i) <- 0.5

let[@nf.hot] enqueue pool (ids : int array) path i =
  let p = Nf_sim.Packet.alloc_data pool ~flow:0 ~seq:i ~size:1500 ~path ~now:0. in
  ids.(i) <- p.Nf_sim.Packet.id

let[@nf.hot] last (xs : int list) =
  let r = ref [] in
  r := xs;
  !r

type node = { v : int }

type cell = { mutable head : node }

let[@nf.hot] waived c n =
  (c.head <- n) [@nf.allow "hot-barrier -- the node is old and written once"]
