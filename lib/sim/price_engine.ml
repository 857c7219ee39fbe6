type t = {
  on_enqueue : Packet.t -> unit;
  on_dequeue : Packet.t -> unit;
  update : unit -> unit;
  interval : float;
  value : unit -> float;
}

let none =
  {
    on_enqueue = (fun _ -> ());
    on_dequeue = (fun _ -> ());
    update = (fun () -> ());
    interval = 1.;
    value = (fun () -> 0.);
  }

(* Comparison-only [Float.max] / [Float.min], the NUM core's pair (see
   [Nf_num.Xwi_core.fmax]): bit-identical to the stdlib on every non-NaN
   input, ±0 included, NaN-propagating like it, and free of its
   [caml_signbit_float] C calls. In-unit, so the per-packet [on_enqueue]
   and the per-interval updates keep their floats unboxed under every
   build profile. [clamp] is [Nf_util.Fcmp.clamp] spelled with them:
   that one is a cross-library call through the stdlib pair, which boxed
   its argument and results on every update (80 B per update of the
   three engines in a release build). *)
let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if Float.is_nan x then x
  else if Float.is_nan y then y
  else if Float.equal x 0. then x +. y
  else x

let[@inline] fmin (x : float) (y : float) =
  if y < x then y
  else if x < y then x
  else if Float.is_nan x then x
  else if Float.is_nan y then y
  else if Float.equal x 0. then -.(-.x -. y)
  else x

let[@inline] clamp ~lo ~hi x = fmin hi (fmax lo x)

(* Engine state lives in all-float records: the compiler stores their
   fields flat, so the per-packet and per-interval updates neither box
   the float nor go through the write barrier ([float ref] cells and
   [mutable float] fields of mixed records do both). *)
type xwi_state = { mutable price : float; mutable min_res : float }

(* The NUMFabric switch, a faithful transcription of Fig. 3. *)
let xwi ?(eta = 5.) ?(beta = 0.5) ?(interval = 30e-6) ~capacity () =
  let st = { price = 0.; min_res = infinity } in
  let bytes_serviced = ref 0 in
  let[@nf.hot] on_enqueue p =
    let r = p.Packet.fl.Packet.normalized_residual in
    if Packet.is_data p && Float.is_finite r then
      st.min_res <- fmin st.min_res r
  in
  let[@nf.hot] on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    let fl = p.Packet.fl in
    fl.Packet.path_price <- fl.Packet.path_price +. st.price;
    p.Packet.path_len <- p.Packet.path_len + 1
  in
  let update () =
    let u =
      clamp ~lo:0. ~hi:1.
        (float_of_int !bytes_serviced *. 8. /. (interval *. capacity))
    in
    let residual = if Float.is_finite st.min_res then st.min_res else 0. in
    let new_price =
      fmax 0. (st.price +. residual -. (eta *. (1. -. u) *. st.price))
    in
    st.price <- (beta *. st.price) +. ((1. -. beta) *. new_price);
    bytes_serviced := 0;
    st.min_res <- infinity
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> st.price) }

(* DGD per Eq. 14: p <- [p + a (y - C) + b q]+ . *)
type dgd_state = { mutable dgd_price : float }

let dgd ?(gain_util = 0.3) ?(gain_queue = 0.15) ?(interval = 16e-6) ~capacity
    ~queue_bytes ~price_scale () =
  let st = { dgd_price = 0. } in
  let bytes_serviced = ref 0 in
  let on_enqueue _ = () in
  let on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    let fl = p.Packet.fl in
    fl.Packet.path_price <- fl.Packet.path_price +. st.dgd_price;
    p.Packet.path_len <- p.Packet.path_len + 1
  in
  let update () =
    let y = float_of_int !bytes_serviced *. 8. /. interval in
    let q = float_of_int (queue_bytes ()) in
    let bdp_bytes = capacity *. interval /. 8. in
    let a = gain_util *. price_scale /. capacity in
    let b = gain_queue *. price_scale /. fmax bdp_bytes 1. in
    st.dgd_price <-
      fmax 0. (st.dgd_price +. (a *. (y -. capacity)) +. (b *. q));
    bytes_serviced := 0
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> st.dgd_price) }

(* RCP* per Eq. 15; departures accumulate R^-alpha (Eq. 16's feedback). *)
type rcp_state = { mutable fair_rate : float }

let rcp ?(gain_spare = 0.4) ?(gain_queue = 0.2) ?(interval = 16e-6)
    ?(mean_rtt = 16e-6) ~alpha ~capacity ~queue_bytes ~initial_fair_rate () =
  let st =
    {
      fair_rate =
        clamp ~lo:(capacity *. 1e-6) ~hi:capacity initial_fair_rate;
    }
  in
  let bytes_serviced = ref 0 in
  let on_enqueue _ = () in
  let on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    if Packet.is_data p then begin
      let fl = p.Packet.fl in
      fl.Packet.rcp_sum <- fl.Packet.rcp_sum +. (st.fair_rate ** -.alpha)
    end
  in
  let update () =
    let y = float_of_int !bytes_serviced *. 8. /. interval in
    let q_rate = float_of_int (queue_bytes ()) *. 8. /. mean_rtt in
    let change =
      interval /. mean_rtt
      *. ((gain_spare *. (capacity -. y)) -. (gain_queue *. q_rate))
      /. capacity
    in
    (* Asymmetric damping: R may halve per update under overload but grow
       by at most 10% per update — an idle link that inflated its rate
       instantly would invite a line-rate blast from every sender the
       moment flows return, then crash to the floor and limit-cycle. *)
    let factor = clamp ~lo:0.5 ~hi:1.1 (1. +. change) in
    (* Idle links advertise above capacity so their R^-alpha term fades
       from Eq. 16 at the fixed point. *)
    st.fair_rate <-
      clamp ~lo:(capacity *. 1e-4) ~hi:(capacity *. 100.)
        (st.fair_rate *. factor);
    bytes_serviced := 0
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> st.fair_rate) }
