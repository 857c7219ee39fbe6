(* RCP* (§3.1, Eq. 15): each switch advertises a fair rate R_l; packets
   accumulate R_l^-alpha along the path and the sender paces at
   (Σ R_l^-alpha)^(-1/alpha) — exact alpha-fair allocations at
   equilibrium, but only for the alpha-fair utility family. *)

module Fcmp = Nf_util.Fcmp

let protocol : Protocol.t =
  (module struct
    let name = "rcp"

    let description =
      "RCP* advertised fair rates, alpha-fair only (Eq. 15)"

    let needs_utility = false

    let update_interval (cfg : Config.t) =
      Some cfg.Config.rcp.Nf_num.Price_law.rcp_update_interval

    let make_link (cfg : Config.t) ~pool ~capacity =
      let qdisc = Queue_disc.fifo ~pool ~limit_bytes:cfg.Config.buffer_bytes () in
      {
        Protocol.lh_qdisc = qdisc;
        lh_engine =
          Price_engine.rcp cfg.Config.rcp ~capacity
            ~queue_bytes:qdisc.Queue_disc.byte_length ~initial_fair_rate:capacity;
      }

    let make_flow (env : Protocol.flow_env) ~utility:_ =
      let alpha = env.Protocol.env_cfg.Config.rcp.Nf_num.Price_law.rcp_alpha in
      (* Start conservatively: RCP converges from below without the
         initial burst overshooting shared links. *)
      let rate = Protocol.cell (env.Protocol.env_line_rate /. 10.) in
      let cap = 2. *. env.Protocol.env_line_rate *. env.Protocol.env_d0 /. 8. in
      let on_ack (pkt : Packet.t) =
        let sum = pkt.Packet.fl.Packet.ack_rcp_sum in
        if sum > 0. then
          rate.Protocol.value <-
            Fcmp.clamp ~lo:1e3 ~hi:env.Protocol.env_line_rate
              (sum ** (-1. /. alpha))
      in
      {
        Protocol.fh_discipline = Protocol.Paced { rate; cap };
        fh_on_send = ignore;
        fh_on_ack = on_ack;
        fh_rto = Protocol.default_rto ~d0:env.Protocol.env_d0;
      }
  end)
