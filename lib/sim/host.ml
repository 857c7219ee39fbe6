module Ewma = Nf_util.Ewma
module Sim = Nf_engine.Sim
module Fcmp = Nf_util.Fcmp

type ctx = {
  sim : Sim.t;
  after : float -> (unit -> unit) -> unit;
  pool : Packet.pool;
  transmit : Packet.t -> unit;
  complete : int -> unit;
  cfg : Config.t;
}

let mss = Packet.data_size

let mss_f = float_of_int mss

(* --------------------------------------------------------------------- *)
(* Generic sender: sequencing, selective repeat, in-flight accounting and
   the window / pacing send loops. Everything protocol-specific lives in
   the flow handle the protocol module built for this flow. *)

(* The sender's float state, all-float so per-ACK stores neither box nor
   go through the write barrier. *)
type sender_floats = {
  mutable inflight : float;  (* bytes *)
  mutable last_progress : float;
}

(* Per-seq state of a finite flow, one byte per seq holding two
   independent bits. A seq is [in_flight] from its (re)send until its ACK
   or an RTO requeues it; [acked] stays set once its first ACK arrived.
   Both bits can be set at once: an RTO can requeue a seq whose ACK then
   arrives before the resend goes out, and the resent copy is in flight
   again while its acked mark keeps a second ACK from counting twice. *)
let acked_bit = 1

let in_flight_bit = 2

type sender = {
  flow : int;
  path : int array;
  size : float;  (* bytes; infinity = persistent *)
  n_packets : int;  (* -1 for persistent *)
  mutable handle : Protocol.flow_handle;
  seq_state : Bytes.t;
      (* per seq, [acked_bit] lor [in_flight_bit]; empty for persistent flows *)
  resend : int Queue.t;
  mutable next_unsent : int;
  mutable acked_count : int;
  sf : sender_floats;
  mutable started : bool;
  mutable stopped : bool;
  mutable is_complete : bool;
  mutable rto_running : bool;
  mutable pace_active : bool;  (* pacing chain scheduled *)
}

let null_handle =
  {
    Protocol.fh_discipline = Protocol.Windowed (Protocol.cell 0.);
    fh_on_send = ignore;
    fh_on_ack = ignore;
    fh_rto = 1.;
  }

let persistent s = s.n_packets < 0

let active s = s.started && not s.stopped && not s.is_complete

let completed s = s.is_complete

let acked_bytes s = float_of_int s.acked_count *. mss_f

let remaining_bytes s =
  if persistent s then infinity
  else Fcmp.fmax mss_f (s.size -. acked_bytes s)

let make_sender ctx ~flow ~path ~size ~d0 ~line_rate ~protocol ~utility =
  if Array.length path = 0 then invalid_arg "Host.make_sender: empty path";
  if not (line_rate > 0.) then invalid_arg "Host.make_sender: bad line rate";
  let n_packets =
    if Float.is_finite size then
      Stdlib.max 1 (int_of_float (ceil (size /. mss_f)))
    else -1
  in
  let s =
    {
      flow;
      path;
      size;
      n_packets;
      handle = null_handle;
      seq_state =
        (if n_packets > 0 then Bytes.make n_packets '\000' else Bytes.empty);
      resend = Queue.create ();
      next_unsent = 0;
      acked_count = 0;
      sf = { inflight = 0.; last_progress = 0. };
      started = false;
      stopped = false;
      is_complete = false;
      rto_running = false;
      pace_active = false;
    }
  in
  let env =
    {
      Protocol.env_sim = ctx.sim;
      env_cfg = ctx.cfg;
      env_size = size;
      env_d0 = d0;
      env_line_rate = line_rate;
      env_path_hops = Array.length path;
      env_remaining = (fun () -> remaining_bytes s);
    }
  in
  let module P = (val protocol : Protocol.PROTOCOL) in
  s.handle <- P.make_flow env ~utility;
  s

(* --------------------------------------------------------------------- *)
(* Sending machinery *)

let[@inline] seq_bits s seq = Char.code (Bytes.unsafe_get s.seq_state seq)

let[@inline] set_seq_bits s seq bits =
  Bytes.unsafe_set s.seq_state seq (Char.unsafe_chr bits)

(* The next seq to send, resends first; -1 when there is none. *)
let[@nf.hot] next_seq s =
  if not (Queue.is_empty s.resend) then Queue.take s.resend
  else if persistent s || s.next_unsent < s.n_packets then begin
    let seq = s.next_unsent in
    s.next_unsent <- seq + 1;
    seq
  end
  else -1

let has_next s =
  (not (Queue.is_empty s.resend)) || persistent s || s.next_unsent < s.n_packets

let[@nf.hot] send_one ctx s seq =
  let pkt =
    Packet.alloc_data ctx.pool ~flow:s.flow ~seq ~size:mss ~path:s.path
      ~now:(Sim.now ctx.sim)
  in
  s.handle.Protocol.fh_on_send pkt;
  s.sf.inflight <- s.sf.inflight +. mss_f;
  if not (persistent s) then
    set_seq_bits s seq (seq_bits s seq lor in_flight_bit);
  ctx.transmit pkt

let[@nf.hot] rec try_send_window ctx s (window : Protocol.cell) =
  if active s && s.sf.inflight < window.Protocol.value && has_next s then begin
    let seq = next_seq s in
    if seq >= 0 then begin
      send_one ctx s seq;
      try_send_window ctx s window
    end
  end

let rec pace_loop ctx s ~(rate : Protocol.cell) ~cap =
  if active s && s.sf.inflight < cap && has_next s then begin
    let seq = next_seq s in
    if seq < 0 then s.pace_active <- false
    else begin
      send_one ctx s seq;
      (* Cap the inter-packet gap: a sender whose advertised rate has
         collapsed must keep probing, or it would never see the feedback
         that lets it recover (rate-based senders deadlock otherwise). *)
      let gap =
        Fcmp.fmin (mss_f *. 8. /. Fcmp.fmax rate.Protocol.value 1e3) 200e-6
      in
      ctx.after gap (fun () -> pace_loop ctx s ~rate ~cap)
    end
  end
  else s.pace_active <- false

(* Resume sending per the flow's discipline (after a start, an ACK or an
   RTO-driven resend). *)
let wakeup ctx s =
  match s.handle.Protocol.fh_discipline with
  | Protocol.Windowed window -> try_send_window ctx s window
  | Protocol.Paced { rate; cap } ->
    if (not s.pace_active) && active s then begin
      s.pace_active <- true;
      pace_loop ctx s ~rate ~cap
    end

(* Safety / pFabric retransmission timer: if no progress for [fh_rto],
   every in-flight packet is assumed lost and queued for resend, in
   ascending seq order. Every seq ever sent is below [next_unsent]. *)
let rec rto_check ctx s =
  if active s then begin
    let rto = s.handle.Protocol.fh_rto in
    if s.sf.inflight > 0. && Sim.now ctx.sim -. s.sf.last_progress >= rto
    then begin
      if not (persistent s) then
        for seq = 0 to s.next_unsent - 1 do
          let bits = seq_bits s seq in
          if bits land in_flight_bit <> 0 then begin
            set_seq_bits s seq (bits land lnot in_flight_bit);
            Queue.add seq s.resend
          end
        done;
      s.sf.inflight <- 0.;
      s.sf.last_progress <- Sim.now ctx.sim;
      wakeup ctx s
    end;
    ctx.after rto (fun () -> rto_check ctx s)
  end
  else s.rto_running <- false

let start ctx s =
  if not s.started then begin
    s.started <- true;
    s.sf.last_progress <- Sim.now ctx.sim;
    wakeup ctx s;
    if not s.rto_running then begin
      s.rto_running <- true;
      ctx.after s.handle.Protocol.fh_rto (fun () -> rto_check ctx s)
    end
  end

let stop s = s.stopped <- true

let stopped s = s.stopped

(* --------------------------------------------------------------------- *)
(* ACK processing *)

let[@nf.hot] register_ack ctx s seq =
  let fresh =
    if persistent s then true
    else if seq < Bytes.length s.seq_state
            && seq_bits s seq land acked_bit = 0
    then begin
      (* The first ACK of a seq: acked, and no longer in flight. *)
      set_seq_bits s seq acked_bit;
      true
    end
    else false
  in
  if fresh then begin
    s.acked_count <- s.acked_count + 1;
    s.sf.inflight <- Fcmp.fmax 0. (s.sf.inflight -. mss_f);
    s.sf.last_progress <- Sim.now ctx.sim;
    if (not (persistent s)) && s.acked_count >= s.n_packets && not s.is_complete
    then begin
      s.is_complete <- true;
      ctx.complete s.flow
    end
  end;
  fresh

let[@nf.hot] handle_ack ctx s (pkt : Packet.t) =
  if not s.is_complete then begin
    ignore (register_ack ctx s pkt.Packet.seq);
    if not s.is_complete then begin
      s.handle.Protocol.fh_on_ack pkt;
      wakeup ctx s
    end
  end

(* --------------------------------------------------------------------- *)
(* Receiver *)

(* The receiver's float state, all-float for the same reason as
   [sender_floats]: both fields are written on every data packet. *)
type receiver_floats = {
  mutable last_arrival : float;
  mutable recv_bytes : float;
}

type receiver = {
  rpath : int array;
  rf : receiver_floats;
  r_filter : Ewma.timed;
  r_sink : (time:float -> float -> unit) option;
}

let make_receiver ctx ~flow:_ ~rpath ~sink =
  {
    rpath;
    rf = { last_arrival = Float.nan; recv_bytes = 0. };
    r_filter = Ewma.timed ~tau:ctx.cfg.Config.rate_measure_tau;
    r_sink = sink;
  }

let[@nf.hot] handle_data ctx r (pkt : Packet.t) =
  let now = Sim.now ctx.sim in
  let rf = r.rf in
  rf.recv_bytes <- rf.recv_bytes +. float_of_int pkt.Packet.size;
  let ipt =
    if Float.is_finite rf.last_arrival then now -. rf.last_arrival
    else Float.nan
  in
  rf.last_arrival <- now;
  if Float.is_finite ipt && ipt > 0. then begin
    let sample = float_of_int pkt.Packet.size *. 8. /. ipt in
    Ewma.timed_update r.r_filter ~now sample;
    match r.r_sink with
    | Some sink -> sink ~time:now (Ewma.timed_value_exn r.r_filter)
    | None -> ()
  end;
  let ack = Packet.alloc_ack ctx.pool ~data:pkt ~path:r.rpath ~now in
  ack.Packet.fl.Packet.ack_ipt <- ipt;
  ctx.transmit ack

(* --------------------------------------------------------------------- *)
(* Introspection *)

let received_bytes r = r.rf.recv_bytes

let measured_rate r = Ewma.timed_value r.r_filter
