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

module Xwi_core = Nf_num.Xwi_core
module Price_law = Nf_num.Price_law

(* Each engine turns its port's counters into the inputs of its law's
   all-float port record and applies the law there: the calls pass no
   float across the library boundary, so the per-packet and
   per-interval work neither boxes nor runs the write barrier. *)

(* The NUMFabric switch of Fig. 3. *)
let xwi ~capacity =
  let params = Xwi_core.default_params and interval = Price_law.xwi_interval in
  let port = { Xwi_core.price = 0.; min_residual = infinity; utilization = 0. } in
  let bytes_serviced = ref 0 in
  (* Eq. 9's minimum by a strict [<]: it differs from [Float.min] only on
     a -0. after a +0., which the law's [p + r] cannot tell apart. *)
  let[@nf.hot] on_enqueue p =
    let r = p.Packet.fl.Packet.normalized_residual in
    if Packet.is_data p && Float.is_finite r && r < port.Xwi_core.min_residual then
      port.Xwi_core.min_residual <- r
  in
  let[@nf.hot] on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    let fl = p.Packet.fl in
    fl.Packet.path_price <- fl.Packet.path_price +. port.Xwi_core.price;
    p.Packet.path_len <- p.Packet.path_len + 1
  in
  let update () =
    port.Xwi_core.utilization <-
      float_of_int !bytes_serviced *. 8. /. (interval *. capacity);
    Xwi_core.port_update params port;
    bytes_serviced := 0;
    port.Xwi_core.min_residual <- infinity
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> port.Xwi_core.price) }

(* Served bits per second and queued bytes over the last interval, the
   inputs of Eqs. 14 and 15. *)
let measure (port : Price_law.port) bytes_serviced ~interval ~queue_bytes =
  port.Price_law.rate <- float_of_int !bytes_serviced *. 8. /. interval;
  port.Price_law.queue <- float_of_int (queue_bytes ());
  bytes_serviced := 0

let dgd (c : Config.dgd) ~capacity ~queue_bytes =
  let interval = c.Price_law.dgd_update_interval in
  let port = { Price_law.cap = capacity; price = 0.; rate = 0.; queue = 0. } in
  let bytes_serviced = ref 0 in
  let on_enqueue _ = () in
  let on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    let fl = p.Packet.fl in
    fl.Packet.path_price <- fl.Packet.path_price +. port.Price_law.price;
    p.Packet.path_len <- p.Packet.path_len + 1
  in
  let update () =
    measure port bytes_serviced ~interval ~queue_bytes;
    Price_law.dgd_port c port
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> port.Price_law.price) }

(* Departures accumulate R^-alpha (Eq. 16's feedback). *)
let rcp (c : Config.rcp) ~capacity ~queue_bytes ~initial_fair_rate =
  let interval = c.Price_law.rcp_update_interval in
  let port =
    {
      Price_law.cap = capacity;
      price = Nf_util.Fcmp.clamp ~lo:(capacity *. 1e-6) ~hi:capacity initial_fair_rate;
      rate = 0.;
      queue = 0.;
    }
  in
  let bytes_serviced = ref 0 in
  let on_enqueue _ = () in
  let on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    if Packet.is_data p then begin
      let fl = p.Packet.fl in
      fl.Packet.rcp_sum <-
        fl.Packet.rcp_sum +. (port.Price_law.price ** -.c.Price_law.rcp_alpha)
    end
  in
  let update () =
    measure port bytes_serviced ~interval ~queue_bytes;
    Price_law.rcp_port Price_law.rcp_packet c port
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> port.Price_law.price) }
