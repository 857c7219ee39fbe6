(* pFabric (Alizadeh et al.): near-optimal FCT via switch-local SRPT —
   tiny priority-drop buffers ranked on remaining flow size, senders
   blasting at line rate with an aggressive retransmission timer. The
   FCT-minimization comparison point of §6 (Fig. 8). *)

let mss_f = float_of_int Packet.data_size

let protocol : Protocol.t =
  (module struct
    let name = "pfabric"

    let description =
      "pFabric: priority-drop queues on remaining size, line-rate senders"

    let needs_utility = false

    let update_interval (_ : Config.t) = None

    let make_link (cfg : Config.t) ~pool ~capacity:_ =
      let pf = cfg.Config.pfabric in
      {
        Protocol.lh_qdisc =
          Queue_disc.pfabric ~pool ~limit_bytes:pf.Config.pfabric_buffer_bytes ();
        lh_engine = Price_engine.none;
      }

    let make_flow (env : Protocol.flow_env) ~utility:_ =
      let window =
        Protocol.cell
          (Float.max mss_f (env.Protocol.env_line_rate *. env.Protocol.env_d0 /. 8.))
      in
      let on_send (pkt : Packet.t) =
        pkt.Packet.fl.Packet.priority <- env.Protocol.env_remaining ()
      in
      {
        Protocol.fh_discipline = Protocol.Windowed window;
        fh_on_send = on_send;
        fh_on_ack = ignore;
        fh_rto = env.Protocol.env_cfg.Config.pfabric.Config.pfabric_rto;
      }
  end)
