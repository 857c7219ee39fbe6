(* Dual Gradient Descent (§3.1, Eq. 14): switches adjust a per-link price
   from rate mismatch and queue occupancy; senders pace at the
   demand-function rate D(price) for their utility. The slow, stable
   baseline NUMFabric is compared against in Figs. 4–6. *)

module Utility = Nf_num.Utility
module Fcmp = Nf_util.Fcmp

let protocol : Protocol.t =
  (module struct
    let name = "dgd"

    let description = "Dual gradient descent prices + paced senders (Eq. 14)"

    let needs_utility = true

    let update_interval (cfg : Config.t) =
      Some cfg.Config.dgd.Config.dgd_update_interval

    let make_link (cfg : Config.t) ~capacity =
      let dgc = cfg.Config.dgd in
      let qdisc = Queue_disc.fifo ~limit_bytes:cfg.Config.buffer_bytes () in
      {
        Protocol.lh_qdisc = qdisc;
        lh_engine =
          Price_engine.dgd ~gain_util:dgc.Config.dgd_gain_util
            ~gain_queue:dgc.Config.dgd_gain_queue
            ~interval:dgc.Config.dgd_update_interval ~capacity
            ~queue_bytes:qdisc.Queue_disc.byte_length
            ~price_scale:dgc.Config.dgd_price_scale ();
      }

    let make_flow (env : Protocol.flow_env) ~utility =
      let u =
        match utility with
        | Some u -> u
        | None -> invalid_arg "Protocol dgd: flow needs a utility"
      in
      let rate = ref env.Protocol.env_line_rate in
      let cap = 2. *. env.Protocol.env_line_rate *. env.Protocol.env_d0 /. 8. in
      let on_ack (pkt : Packet.t) =
        if pkt.Packet.ack_path_len > 0 then begin
          let price =
            Fcmp.fmax pkt.Packet.fl.Packet.ack_path_price Utility.min_price
          in
          rate :=
            Fcmp.clamp ~lo:1e3 ~hi:env.Protocol.env_line_rate
              (Utility.rate_from_price u price)
        end
      in
      {
        Protocol.fh_discipline =
          Protocol.Paced { rate = (fun () -> !rate); cap };
        fh_on_send = ignore;
        fh_on_ack = on_ack;
        fh_rto = Protocol.default_rto ~d0:env.Protocol.env_d0;
        fh_window = (fun () -> None);
        fh_rate_estimate = (fun () -> Some !rate);
      }
  end)
