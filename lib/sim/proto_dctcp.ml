(* DCTCP (Alizadeh et al.): ECN-marking FIFOs at switches, window-based
   senders that cut multiplicatively in proportion to the EWMA-filtered
   marked fraction. One of the fabric baselines in §6. *)

module Sim = Nf_engine.Sim

let mss_f = float_of_int Packet.data_size

(* The window (bytes) lives in the discipline's cell, which [Host]
   reads. *)
type state = {
  cwnd : Protocol.cell;
  mutable alpha : float;  (* EWMA of marked fraction *)
  mutable marked : int;
  mutable total : int;
  mutable next_update : float;
  mutable slow_start : bool;
}

let protocol : Protocol.t =
  (module struct
    let name = "dctcp"

    let description = "DCTCP: ECN-threshold FIFOs + proportional window cuts"

    let needs_utility = false

    let update_interval (_ : Config.t) = None

    let make_link (cfg : Config.t) ~pool ~capacity:_ =
      let dc = cfg.Config.dctcp in
      {
        Protocol.lh_qdisc =
          Queue_disc.ecn_fifo ~pool ~limit_bytes:cfg.Config.buffer_bytes
            ~mark_threshold_bytes:dc.Config.dctcp_mark_threshold ();
        lh_engine = Price_engine.none;
      }

    let make_flow (env : Protocol.flow_env) ~utility:_ =
      let dc = env.Protocol.env_cfg.Config.dctcp in
      let g = dc.Config.dctcp_gain in
      let st =
        {
          cwnd = Protocol.cell (10. *. mss_f);
          alpha = 0.;
          marked = 0;
          total = 0;
          next_update = 0.;
          slow_start = true;
        }
      in
      let sim = env.Protocol.env_sim and cwnd = st.cwnd in
      let on_ack (pkt : Packet.t) =
        st.total <- st.total + 1;
        if pkt.Packet.ack_ecn then st.marked <- st.marked + 1;
        if st.slow_start then begin
          cwnd.Protocol.value <- cwnd.Protocol.value +. mss_f;
          if pkt.Packet.ack_ecn then st.slow_start <- false
        end;
        (* Window update once per baseline RTT, as in the DCTCP paper. *)
        if Sim.now sim >= st.next_update && st.total > 0 then begin
          let frac = float_of_int st.marked /. float_of_int st.total in
          st.alpha <- ((1. -. g) *. st.alpha) +. (g *. frac);
          if st.marked > 0 then
            cwnd.Protocol.value <-
              Float.max mss_f (cwnd.Protocol.value *. (1. -. (st.alpha /. 2.)))
          else if not st.slow_start then
            cwnd.Protocol.value <- cwnd.Protocol.value +. mss_f;
          st.marked <- 0;
          st.total <- 0;
          st.next_update <- Sim.now sim +. env.Protocol.env_d0
        end
      in
      {
        Protocol.fh_discipline = Protocol.Windowed cwnd;
        fh_on_send = ignore;
        fh_on_ack = on_ack;
        fh_rto = Protocol.default_rto ~d0:env.Protocol.env_d0;
      }
  end)
