type kind = Data | Ack

type floats = {
  mutable sent_at : float;
  mutable virtual_packet_len : float;
  mutable path_price : float;
  mutable normalized_residual : float;
  mutable rcp_sum : float;
  mutable priority : float;
  mutable ack_ipt : float;
  mutable ack_path_price : float;
  mutable ack_rcp_sum : float;
}

type t = {
  id : int;
  mutable flow : int;
  mutable seq : int;
  mutable size : int;
  mutable kind : kind;
  mutable hop : int;
  mutable path : int array;
  mutable path_len : int;
  mutable ecn : bool;
  mutable ack_path_len : int;
  mutable ack_ecn : bool;
  fl : floats;
}

let data_size = 1500

let ack_size = 40

let blank id =
  {
    id;
    flow = -1;
    seq = -1;
    size = -1;
    kind = Data;
    hop = max_int;
    path = [||];
    path_len = 0;
    ecn = false;
    ack_path_len = 0;
    ack_ecn = false;
    fl =
      {
        sent_at = 0.;
        virtual_packet_len = 0.;
        path_price = 0.;
        normalized_residual = 0.;
        rcp_sum = 0.;
        priority = 0.;
        ack_ipt = Float.nan;
        ack_path_price = 0.;
        ack_rcp_sum = 0.;
      };
  }

(* Every field of a fresh data packet. A recycled record and its path
   array are both old, so the one pointer store below costs a barrier
   call but adds nothing to the remembered set. *)
let[@nf.hot] [@inline] init_data p ~flow ~seq ~size ~path ~now =
  p.flow <- flow;
  p.seq <- seq;
  p.size <- size;
  p.kind <- Data;
  p.hop <- 0;
  (p.path <- path)
  [@nf.allow "hot-barrier -- one store per packet birth, old into old"];
  p.path_len <- 0;
  p.ecn <- false;
  p.ack_path_len <- 0;
  p.ack_ecn <- false;
  let fl = p.fl in
  fl.sent_at <- now;
  fl.virtual_packet_len <- float_of_int size;
  fl.path_price <- 0.;
  fl.normalized_residual <- 0.;
  fl.rcp_sum <- 0.;
  fl.priority <- infinity;
  fl.ack_ipt <- Float.nan;
  fl.ack_path_price <- 0.;
  fl.ack_rcp_sum <- 0.

let[@nf.hot] [@inline] init_ack p ~data ~path ~now =
  p.flow <- data.flow;
  p.seq <- data.seq;
  p.size <- ack_size;
  p.kind <- Ack;
  p.hop <- 0;
  (p.path <- path)
  [@nf.allow "hot-barrier -- one store per packet birth, old into old"];
  p.path_len <- 0;
  p.ecn <- false;
  p.ack_path_len <- data.path_len;
  p.ack_ecn <- data.ecn;
  let fl = p.fl in
  fl.sent_at <- now;
  (* Control packets: virtualPacketLen = 0, residual ignored (§5). *)
  fl.virtual_packet_len <- 0.;
  fl.path_price <- 0.;
  fl.normalized_residual <- Float.nan;
  fl.rcp_sum <- 0.;
  fl.priority <- 0.;
  fl.ack_ipt <- Float.nan;
  fl.ack_path_price <- data.fl.path_price;
  fl.ack_rcp_sum <- data.fl.rcp_sum

(* ------------------------------------------------------------------ *)
(* The pool: records by id, a byte of state per id, and a stack of free
   ids. Every container store of a packet is an int, so the pool's
   records are the only pointers, written once when the pool grows. *)

type pool = {
  mutable pkts : t array;
  mutable state : Bytes.t;  (* per id: [live_byte] or [free_byte] *)
  mutable free : int array;  (* free ids, [n_free] of them, next on top *)
  mutable n_free : int;
}

let live_byte = '\001'

let free_byte = '\000'

let create_pool () = { pkts = [||]; state = Bytes.empty; free = [||]; n_free = 0 }

let capacity pool = Array.length pool.pkts

let live pool = capacity pool - pool.n_free

let[@inline] is_live pool id =
  id >= 0 && id < capacity pool && Bytes.unsafe_get pool.state id = live_byte

(* Doubles the pool (it is only called with no free id). The new ids go
   on the free stack lowest on top. *)
let[@inline never] grow pool =
  let cap = capacity pool in
  let n = Int.max 64 (2 * cap) in
  pool.pkts <- Array.init n (fun i -> if i < cap then pool.pkts.(i) else blank i);
  let state = Bytes.make n free_byte in
  Bytes.blit pool.state 0 state 0 cap;
  pool.state <- state;
  pool.free <- Array.init n (fun i -> if i < n - cap then n - 1 - i else 0);
  pool.n_free <- n - cap

let[@nf.hot] [@inline] take pool =
  if pool.n_free = 0 then grow pool;
  let k = pool.n_free - 1 in
  pool.n_free <- k;
  let id = pool.free.(k) in
  Bytes.unsafe_set pool.state id live_byte;
  Array.unsafe_get pool.pkts id

let[@nf.hot] [@inline] alloc_data pool ~flow ~seq ~size ~path ~now =
  let p = take pool in
  init_data p ~flow ~seq ~size ~path ~now;
  p

let[@nf.hot] [@inline] alloc_ack pool ~data ~path ~now =
  let p = take pool in
  init_ack p ~data ~path ~now;
  p

let[@inline never] not_live what id =
  invalid_arg (Printf.sprintf "Packet.%s: packet %d is not live" what id)

let[@nf.hot] release pool p =
  let id = p.id in
  if not (is_live pool id && pool.pkts.(id) == p) then not_live "release" id;
  Bytes.unsafe_set pool.state id free_byte;
  pool.free.(pool.n_free) <- id;
  pool.n_free <- pool.n_free + 1;
  p.flow <- -1;
  p.seq <- -1;
  p.size <- -1;
  p.hop <- max_int

let[@nf.hot] [@inline] get pool id =
  if not (is_live pool id) then not_live "get" id;
  Array.unsafe_get pool.pkts id

let is_data p = p.kind = Data
