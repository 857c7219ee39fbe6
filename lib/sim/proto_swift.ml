(* The NUMFabric transport of §5: Swift rate control (packet-pair rate
   estimation, EWMA, window = R * (d0 + dt)) + xWI weight/residual
   computation at the host, STFQ queues + xWI price engines (Fig. 3) at
   every port. The [numfabric-srpt] variant re-derives the utility from
   the flow's remaining size on every ACK (§2), approximating SRPT. *)

module Utility = Nf_num.Utility
module Ewma = Nf_util.Ewma
module Fcmp = Nf_util.Fcmp
module Sim = Nf_engine.Sim

let mss_f = float_of_int Packet.data_size

(* Swift's float state, all-float so the per-packet and per-ACK stores
   neither box nor go through the write barrier. The window lives in the
   discipline's cell, which [Host] reads. [u_weight]/[u_walpha] are the
   SRPT utility's current weight and weight^alpha (unused otherwise). *)
type floats = {
  mutable weight : float;
  mutable price : float;
  mutable u_weight : float;
  mutable u_walpha : float;
}

(* The flow's utility. [Srpt] is [Utility.fct_remaining ~remaining ~eps]
   for the current remaining size: an alpha-fair shape with alpha = eps
   whose weight, [Utility.fct_weight] of the remaining size floored at
   one byte, alone moves as the flow drains. The sender keeps that
   weight in [floats] and evaluates it with [Utility.alpha_fair_deriv] /
   [alpha_fair_rate], the formulas [Utility.deriv]/[rate_from_price]
   apply to the utility [fct_remaining] would build, so a per-ACK update
   allocates nothing and every result is bit-identical to rebuilding the
   utility. *)
type law =
  | Fixed of Utility.t
  | Srpt of { eps : float; log_shape : bool; alpha : float; inv_alpha : float }

type state = {
  law : law;
  rate : Ewma.timed;  (* R-hat *)
  mutable path_len : int;
  f : floats;
}

let[@inline] srpt_set_remaining ~eps ~alpha f remaining =
  let w = Utility.fct_weight ~size:(Fcmp.fmax remaining 1.) ~eps in
  f.u_weight <- w;
  f.u_walpha <- w ** alpha

let[@inline] deriv st x =
  match st.law with
  | Fixed u -> Utility.deriv u x
  | Srpt { log_shape; alpha; _ } ->
    Utility.alpha_fair_deriv ~log_shape ~weight:st.f.u_weight
      ~walpha:st.f.u_walpha ~alpha x

let[@inline] rate_from_price st p =
  match st.law with
  | Fixed u -> Utility.rate_from_price u p
  | Srpt { log_shape; inv_alpha; _ } ->
    Utility.alpha_fair_rate ~log_shape ~weight:st.f.u_weight ~inv_alpha p

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

    let update_interval (_ : Config.t) = Some Nf_num.Price_law.xwi_interval

    let make_link (cfg : Config.t) ~pool ~capacity =
      {
        Protocol.lh_qdisc =
          Queue_disc.stfq ~pool ~limit_bytes:cfg.Config.buffer_bytes ();
        lh_engine = Price_engine.xwi ~capacity;
      }

    let make_flow (env : Protocol.flow_env) ~utility =
      let swc = env.Protocol.env_cfg.Config.swift in
      let f =
        {
          (* Before any price feedback, a weight on the scale of the
             line rate keeps virtual packet lengths commensurate with
             later (rate-scaled) weights. *)
          weight = env.Protocol.env_line_rate;
          price = 0.;
          u_weight = 0.;
          u_walpha = 0.;
        }
      in
      let law =
        if srpt then begin
          if not (Float.is_finite env.Protocol.env_size) then
            invalid_arg
              (Printf.sprintf
                 "Protocol %s: SRPT weights need a finite flow size" name);
          let eps = swc.Config.srpt_eps in
          (* Built once: validates [eps] and yields the shape's constants. *)
          let u = Utility.fct_remaining ~remaining:env.Protocol.env_size ~eps in
          let law =
            match u with
            | Utility.Power { alpha; inv_alpha; _ } ->
              Srpt { eps; log_shape = false; alpha; inv_alpha }
            | Utility.Log _ | Utility.Opaque _ (* never: it is alpha-fair *) ->
              Srpt { eps; log_shape = true; alpha = eps; inv_alpha = -1. /. eps }
          in
          srpt_set_remaining ~eps ~alpha:eps f env.Protocol.env_size;
          law
        end
        else
          match utility with
          | Some u -> Fixed u
          | None ->
            invalid_arg
              (Printf.sprintf "Protocol %s: flow needs a utility" name)
      in
      let st =
        {
          law;
          rate = Ewma.timed ~tau:swc.Config.ewma_time;
          path_len = env.Protocol.env_path_hops;
          f;
        }
      in
      let sf = st.f in
      let window = Protocol.cell (float_of_int swc.Config.init_burst *. mss_f) in
      let[@nf.hot] on_send (pkt : Packet.t) =
        let fl = pkt.Packet.fl in
        fl.Packet.virtual_packet_len <-
          mss_f /. Fcmp.fmax (quantize_weight swc sf.weight) 1e-30;
        if Ewma.timed_is_set st.rate && st.path_len > 0 then
          fl.Packet.normalized_residual <-
            (deriv st (Fcmp.fmax (Ewma.timed_value_exn st.rate) 1.)
            -. sf.price)
            /. float_of_int st.path_len
        else fl.Packet.normalized_residual <- Float.nan
      in
      let[@nf.hot] on_ack (pkt : Packet.t) =
        let fl = pkt.Packet.fl in
        if pkt.Packet.ack_path_len > 0 then begin
          sf.price <- fl.Packet.ack_path_price;
          st.path_len <- pkt.Packet.ack_path_len
        end;
        (match st.law with
        | Srpt { eps; alpha; _ } ->
          srpt_set_remaining ~eps ~alpha sf (env.Protocol.env_remaining ())
        | Fixed _ -> ());
        sf.weight <- rate_from_price st (Fcmp.fmax sf.price Utility.min_price);
        let ipt = fl.Packet.ack_ipt in
        if Float.is_finite ipt && ipt > 0. then begin
          let sample = mss_f *. 8. /. ipt in
          Ewma.timed_update st.rate ~now:(Sim.now env.Protocol.env_sim) sample;
          let r = Ewma.timed_value_exn st.rate in
          let w =
            r *. (env.Protocol.env_d0 +. swc.Config.dt_slack) /. 8.
          in
          window.Protocol.value <- Fcmp.fmax w mss_f
        end
      in
      {
        Protocol.fh_discipline = Protocol.Windowed window;
        fh_on_send = on_send;
        fh_on_ack = on_ack;
        fh_rto = Protocol.default_rto ~d0:env.Protocol.env_d0;
      }
  end)

let numfabric =
  make ~srpt:false ~name:"numfabric"
    ~description:"Swift (STFQ + packet-pair windows) + xWI prices (\xC2\xA75)"

let numfabric_srpt =
  make ~srpt:true ~name:"numfabric-srpt"
    ~description:
      "NUMFabric with remaining-size (SRPT) weights; flows need finite sizes"
