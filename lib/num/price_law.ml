module Fcmp = Nf_util.Fcmp

type dgd = {
  dgd_update_interval : float;
  dgd_gain_util : float;
  dgd_gain_queue : float;
  dgd_price_scale : float;
}

type rcp = {
  rcp_update_interval : float;
  rcp_gain_spare : float;
  rcp_gain_queue : float;
  rcp_mean_rtt : float;
  rcp_alpha : float;
}

let eta = 5.

let beta = 0.5

let xwi_interval = 30e-6

let dgd_table2 =
  {
    dgd_update_interval = 16e-6;
    dgd_gain_util = 0.3;
    dgd_gain_queue = 0.15;
    dgd_price_scale = 4e-10;
  }

let rcp_table2 =
  {
    rcp_update_interval = 16e-6;
    rcp_gain_spare = 0.4;
    rcp_gain_queue = 0.2;
    rcp_mean_rtt = 16e-6;
    rcp_alpha = 1.;
  }

type rcp_bounds = { factor_lo : float; factor_hi : float; rate_lo : float; rate_hi : float }

let rcp_packet = { factor_lo = 0.5; factor_hi = 1.1; rate_lo = 1e-4; rate_hi = 100. }

let rcp_fluid = { factor_lo = 0.5; factor_hi = 2.; rate_lo = 1e-6; rate_hi = 100. }

(* Eq. 14: p <- [p + a (y - C) + b q]+, the gains relative to the price
   scale over the capacity (a) and over one interval's BDP (b). *)
let[@inline] dgd c ~cap ~price ~rate ~queue =
  let a = c.dgd_gain_util *. c.dgd_price_scale /. cap in
  let b =
    c.dgd_gain_queue *. c.dgd_price_scale
    /. Fcmp.fmax (cap *. c.dgd_update_interval /. 8.) 1.
  in
  Fcmp.fmax 0. (price +. (a *. (rate -. cap)) +. (b *. queue))

(* Eq. 15: R <- R (1 + (T/d)(a (C - y) - b q/d) / C), the factor and
   then the rate clamped to the substrate's bounds. *)
let[@inline] rcp bounds c ~cap ~fair_rate ~rate ~queue =
  let queue_rate = queue *. 8. /. c.rcp_mean_rtt in
  let change =
    c.rcp_update_interval /. c.rcp_mean_rtt
    *. ((c.rcp_gain_spare *. (cap -. rate)) -. (c.rcp_gain_queue *. queue_rate))
    /. cap
  in
  let factor =
    Fcmp.fmin bounds.factor_hi (Fcmp.fmax bounds.factor_lo (1. +. change))
  in
  Fcmp.fmin (cap *. bounds.rate_hi)
    (Fcmp.fmax (cap *. bounds.rate_lo) (fair_rate *. factor))

type port = {
  cap : float;
  mutable price : float;
  mutable rate : float;
  mutable queue : float;
}

let dgd_port c p =
  p.price <- dgd c ~cap:p.cap ~price:p.price ~rate:p.rate ~queue:p.queue

let rcp_port bounds c p =
  p.price <- rcp bounds c ~cap:p.cap ~fair_rate:p.price ~rate:p.rate ~queue:p.queue
