(* The NUMFabric transport of §5: Swift rate control (packet-pair rate
   estimation, EWMA, window = R * (d0 + dt)) + xWI weight/residual
   computation at the host, STFQ queues + xWI price engines (Fig. 3) at
   every port. The [numfabric-srpt] variant re-derives the utility from
   the flow's remaining size on every ACK (§2), approximating SRPT. *)

module Utility = Nf_num.Utility
module Ewma = Nf_util.Ewma
module Fcmp = Nf_util.Fcmp

let mss_f = float_of_int Packet.data_size

(* Swift's float state, all-float so the per-packet and per-ACK stores
   neither box nor go through the write barrier. *)
type floats = {
  mutable weight : float;
  mutable window : float;  (* bytes *)
  mutable price : float;
}

type state = {
  mutable utility : Utility.t;
  srpt_eps : float option;
    (* when set, the utility tracks the remaining size (SRPT, §2) *)
  rate : Ewma.timed;  (* R-hat *)
  mutable path_len : int;
  f : floats;
}

(* §8 extension: model switches that only support a small set of weight
   classes by rounding the weight to the nearest power of [base]. *)
let[@inline] quantize_weight (swc : Config.swift) w =
  match swc.Config.weight_quant_base with
  | None -> w
  | Some base when base > 1. -> base ** Float.round (log w /. log base)
  | Some _ -> w

let make ~srpt ~name ~description : Protocol.t =
  (module struct
    let name = name

    let description = description

    let needs_utility = not srpt

    let update_interval (cfg : Config.t) =
      Some cfg.Config.swift.Config.price_update_interval

    let make_link (cfg : Config.t) ~capacity =
      let swc = cfg.Config.swift in
      {
        Protocol.lh_qdisc =
          Queue_disc.stfq ~limit_bytes:cfg.Config.buffer_bytes ();
        lh_engine =
          Price_engine.xwi ~eta:swc.Config.eta ~beta:swc.Config.beta
            ~interval:swc.Config.price_update_interval ~capacity ();
      }

    let make_flow (env : Protocol.flow_env) ~utility =
      let swc = env.Protocol.env_cfg.Config.swift in
      let utility, srpt_eps =
        if srpt then begin
          if not (Float.is_finite env.Protocol.env_size) then
            invalid_arg
              (Printf.sprintf
                 "Protocol %s: SRPT weights need a finite flow size" name);
          let eps = swc.Config.srpt_eps in
          (Utility.fct_remaining ~remaining:env.Protocol.env_size ~eps, Some eps)
        end
        else
          match utility with
          | Some u -> (u, None)
          | None ->
            invalid_arg
              (Printf.sprintf "Protocol %s: flow needs a utility" name)
      in
      let st =
        {
          utility;
          srpt_eps;
          rate = Ewma.timed ~tau:swc.Config.ewma_time;
          path_len = env.Protocol.env_path_hops;
          f =
            {
              (* Before any price feedback, a weight on the scale of the
                 line rate keeps virtual packet lengths commensurate with
                 later (rate-scaled) weights. *)
              weight = env.Protocol.env_line_rate;
              window = float_of_int swc.Config.init_burst *. mss_f;
              price = 0.;
            };
        }
      in
      let sf = st.f in
      let on_send (pkt : Packet.t) =
        let fl = pkt.Packet.fl in
        fl.Packet.virtual_packet_len <-
          mss_f /. Fcmp.fmax (quantize_weight swc sf.weight) 1e-30;
        if Ewma.timed_is_set st.rate && st.path_len > 0 then
          fl.Packet.normalized_residual <-
            (st.utility.Utility.deriv
               (Fcmp.fmax (Ewma.timed_value_exn st.rate) 1.)
            -. sf.price)
            /. float_of_int st.path_len
        else fl.Packet.normalized_residual <- Float.nan
      in
      let on_ack (pkt : Packet.t) =
        let fl = pkt.Packet.fl in
        if pkt.Packet.ack_path_len > 0 then begin
          sf.price <- fl.Packet.ack_path_price;
          st.path_len <- pkt.Packet.ack_path_len
        end;
        (match st.srpt_eps with
        | Some eps ->
          st.utility <-
            Utility.fct_remaining ~remaining:(env.Protocol.env_remaining ()) ~eps
        | None -> ());
        sf.weight <-
          Utility.rate_from_price st.utility
            (Fcmp.fmax sf.price Utility.min_price);
        let ipt = fl.Packet.ack_ipt in
        if Float.is_finite ipt && ipt > 0. then begin
          let sample = mss_f *. 8. /. ipt in
          Ewma.timed_update st.rate ~now:(env.Protocol.env_now ()) sample;
          let r = Ewma.timed_value_exn st.rate in
          let w =
            r *. (env.Protocol.env_d0 +. swc.Config.dt_slack) /. 8.
          in
          sf.window <- Fcmp.fmax w mss_f
        end
      in
      {
        Protocol.fh_discipline = Protocol.Windowed (fun () -> sf.window);
        fh_on_send = on_send;
        fh_on_ack = on_ack;
        fh_rto = Protocol.default_rto ~d0:env.Protocol.env_d0;
        fh_window = (fun () -> Some sf.window);
        fh_rate_estimate = (fun () -> Ewma.timed_value st.rate);
      }
  end)

let numfabric =
  make ~srpt:false ~name:"numfabric"
    ~description:"Swift (STFQ + packet-pair windows) + xWI prices (\xC2\xA75)"

let numfabric_srpt =
  make ~srpt:true ~name:"numfabric-srpt"
    ~description:
      "NUMFabric with remaining-size (SRPT) weights; flows need finite sizes"
