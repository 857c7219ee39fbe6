module Topology = Nf_topo.Topology
module Routing = Nf_topo.Routing
module Sim = Nf_engine.Sim
module Trace = Nf_util.Trace
module Metrics = Nf_util.Metrics

(* Global observability: counters are cheap enough to bump unconditionally;
   trace emissions are guarded by [Trace.on] so a disabled sink costs one
   branch per potential event. *)
let m_forwarded =
  Metrics.counter Metrics.global
    ~help:"Packets accepted by a link queue" "nf_sim_packets_forwarded_total"

let m_dropped =
  Metrics.counter Metrics.global
    ~help:"Packets rejected by a full link queue" "nf_sim_packets_dropped_total"

let m_ecn_marks =
  Metrics.counter Metrics.global
    ~help:"Packets ECN-marked on enqueue" "nf_sim_ecn_marks_total"

let m_delivered =
  Metrics.counter Metrics.global
    ~help:"Packets delivered to their end host" "nf_sim_packets_delivered_total"

let m_flows_started =
  Metrics.counter Metrics.global
    ~help:"Flow senders started" "nf_sim_flows_started_total"

let m_flows_completed =
  Metrics.counter Metrics.global
    ~help:"Finite flows completed" "nf_sim_flows_completed_total"

(* Persistent flows never complete — they are torn down by stop_flow_at.
   Counting teardowns separately keeps started = completed + stopped +
   still-running legible in exported metrics (the quick sweep's packet
   experiments use persistent flows only, hence completed = 0 there). *)
let m_flows_stopped =
  Metrics.counter Metrics.global
    ~help:"Flow senders stopped before completing" "nf_sim_flows_stopped_total"

let m_wall_per_sim_second =
  Metrics.gauge Metrics.global
    ~help:"Wall-clock seconds per simulated second of the last Network.run"
    "nf_sim_wall_seconds_per_sim_second"

type flow_spec = {
  fs_id : int;
  fs_src : int;
  fs_dst : int;
  fs_size : float;
  fs_start : float;
  fs_path : int array option;
  fs_utility : Nf_num.Utility.t option;
}

let flow ?path ?utility ?(size = infinity) ?(start = 0.) ~id ~src ~dst () =
  {
    fs_id = id;
    fs_src = src;
    fs_dst = dst;
    fs_size = size;
    fs_start = start;
    fs_path = path;
    fs_utility = utility;
  }

(* Scheduling categories, interned once: the forward path runs per packet. *)
let cat_link_tx = Sim.cat "link-tx"

let cat_pkt_arrive = Sim.cat "pkt-arrive"

let cat_host = Sim.cat "host"

let cat_price_update = Sim.cat "price-update"

let cat_flow_start = Sim.cat "flow-start"

let cat_flow_stop = Sim.cat "flow-stop"

let cat_monitor = Sim.cat "monitor"

(* A link's wire: the packets in flight on it (serialized, not yet
   arrived), in a FIFO ring. A link serializes one packet at a time and
   every packet on it shares the link's propagation delay, so its
   arrivals are strictly increasing in time and in scheduling order: the
   link's one preallocated [arrive_next] handler pops exactly the packet
   a per-packet closure would have captured. *)
type link_state = {
  link : Topology.link;
  qdisc : Queue_disc.t;
  engine : Price_engine.t;
  byte_time : float;  (* seconds to serialize one byte *)
  mutable busy : bool;
  mutable delivered : int;  (* bytes dequeued *)
  mutable wire : Packet.t array;  (* ring; capacity a power of two *)
  mutable wire_head : int;  (* index of the oldest packet in flight *)
  mutable wire_len : int;
  mutable tx_done : unit -> unit;
      (* preallocated "transmission finished" handler, built once the
         network exists, so the per-packet path schedules it for free *)
  mutable arrive_next : unit -> unit;
      (* preallocated "oldest packet on the wire arrives" handler *)
}

let wire_dummy = Packet.make_data ~flow:(-1) ~seq:(-1) ~size:0 ~path:[||] ~now:0.

let grow_wire ls =
  let cap = Array.length ls.wire in
  let wire = Array.make (2 * cap) wire_dummy in
  for i = 0 to ls.wire_len - 1 do
    wire.(i) <- ls.wire.((ls.wire_head + i) land (cap - 1))
  done;
  ls.wire <- wire;
  ls.wire_head <- 0

let[@nf.hot] wire_push ls pkt =
  if ls.wire_len = Array.length ls.wire then grow_wire ls;
  let wire = ls.wire in
  wire.((ls.wire_head + ls.wire_len) land (Array.length wire - 1)) <- pkt;
  ls.wire_len <- ls.wire_len + 1

(* Only ever called by [arrive_next], which is scheduled once per push. *)
let[@nf.hot] wire_pop ls =
  let wire = ls.wire in
  let h = ls.wire_head in
  let pkt = wire.(h) in
  wire.(h) <- wire_dummy;
  ls.wire_head <- (h + 1) land (Array.length wire - 1);
  ls.wire_len <- ls.wire_len - 1;
  pkt

type t = {
  sim : Sim.t;
  topo : Topology.t;
  protocol : Protocol.t;
  config : Config.t;
  links : link_state array;
  senders : (int, Host.sender) Hashtbl.t;
  receivers : (int, Host.receiver) Hashtbl.t;
  paths : (int, int array) Hashtbl.t;
  rtts : (int, float) Hashtbl.t;
  starts : (int, float) Hashtbl.t;
  record : Record.t;
  trace : Trace.t;
  ctx : Host.ctx;
}

let sim t = t.sim

let protocol t = t.protocol

let record t = t.record

let trace t = t.trace

(* ------------------------------------------------------------------ *)
(* Link transmission machinery *)

(* Trace emissions of the packet path, out of line: [~aux] builds a [Some]
   and the payload floats box, a price only an enabled sink pays. Callers
   guard each with [Trace.on]. *)
let[@inline never] trace_link t kind link_id pkt =
  Trace.emit t.trace kind ~subject:link_id ~time:(Sim.now t.sim)
    ~aux:(float_of_int pkt.Packet.flow)
    (float_of_int pkt.Packet.size)

let[@inline never] trace_host t kind pkt =
  Trace.emit t.trace kind ~subject:pkt.Packet.flow ~time:(Sim.now t.sim)
    ~aux:(float_of_int pkt.Packet.size)
    (float_of_int pkt.Packet.seq)

let[@nf.hot] rec try_transmit t ls =
  (* [packet_count] then [dequeue_exn] rather than [dequeue]: the option
     wrapper would allocate once per transmitted packet. *)
  if (not ls.busy) && ls.qdisc.Queue_disc.packet_count () > 0 then begin
    let pkt = ls.qdisc.Queue_disc.dequeue_exn () in
    ls.engine.Price_engine.on_dequeue pkt;
    ls.busy <- true;
    ls.delivered <- ls.delivered + pkt.Packet.size;
    if Trace.on t.trace Trace.Dequeue then
      trace_link t Trace.Dequeue ls.link.Topology.link_id pkt;
    let tx = float_of_int pkt.Packet.size *. ls.byte_time in
    Sim.schedule_after_cat t.sim ~cat:cat_link_tx ~delay:tx ls.tx_done;
    wire_push ls pkt;
    Sim.schedule_after_cat t.sim ~cat:cat_pkt_arrive
      ~delay:(tx +. ls.link.Topology.delay) ls.arrive_next
  end

and[@nf.hot] forward t pkt link_id =
  let ls = t.links.(link_id) in
  let marked_before = pkt.Packet.ecn in
  if ls.qdisc.Queue_disc.enqueue pkt then begin
    Metrics.incr m_forwarded;
    if Trace.on t.trace Trace.Enqueue then
      trace_link t Trace.Enqueue link_id pkt;
    if pkt.Packet.ecn && not marked_before then begin
      Metrics.incr m_ecn_marks;
      if Trace.on t.trace Trace.EcnMark then
        trace_link t Trace.EcnMark link_id pkt
    end;
    ls.engine.Price_engine.on_enqueue pkt;
    try_transmit t ls
  end
  else begin
    Metrics.incr m_dropped;
    if Trace.on t.trace Trace.Drop then trace_link t Trace.Drop link_id pkt
  end

and[@nf.hot] arrive t pkt =
  pkt.Packet.hop <- pkt.Packet.hop + 1;
  if pkt.Packet.hop < Array.length pkt.Packet.path then
    forward t pkt pkt.Packet.path.(pkt.Packet.hop)
  else begin
    (* Reached the end host. *)
    Metrics.incr m_delivered;
    if Trace.on t.trace Trace.PktRecv then trace_host t Trace.PktRecv pkt;
    match pkt.Packet.kind with
    | Packet.Data -> (
      match Hashtbl.find_opt t.receivers pkt.Packet.flow with
      | Some r -> Host.handle_data t.ctx r pkt
      | None -> ())
    | Packet.Ack -> (
      match Hashtbl.find_opt t.senders pkt.Packet.flow with
      | Some s -> Host.handle_ack t.ctx s pkt
      | None -> ())
  end

let transmit t pkt =
  if Trace.on t.trace Trace.PktSend then trace_host t Trace.PktSend pkt;
  forward t pkt pkt.Packet.path.(0)

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ?(config = Config.default) ?record ?trace ~topology ~protocol () =
  let module P = (val protocol : Protocol.PROTOCOL) in
  let sim = Sim.create () in
  let record =
    match record with
    | Some r -> r
    | None -> Record.create ()
  in
  let trace =
    match trace with
    | Some tr -> tr
    | None -> Trace.default ()
  in
  let links =
    Array.map
      (fun link ->
        let lh = P.make_link config ~capacity:link.Topology.capacity in
        {
          link;
          qdisc = lh.Protocol.lh_qdisc;
          engine = lh.Protocol.lh_engine;
          byte_time = 8. /. link.Topology.capacity;
          busy = false;
          delivered = 0;
          wire = Array.make 16 wire_dummy;
          wire_head = 0;
          wire_len = 0;
          tx_done = (fun () -> ());
          arrive_next = (fun () -> ());
        })
      (Topology.links topology)
  in
  let rec t =
    {
      sim;
      topo = topology;
      protocol;
      config;
      links;
      senders = Hashtbl.create 256;
      receivers = Hashtbl.create 256;
      paths = Hashtbl.create 256;
      rtts = Hashtbl.create 256;
      starts = Hashtbl.create 256;
      record;
      trace;
      ctx =
        {
          Host.sim;
          after =
            (fun delay f -> Sim.schedule_after_cat sim ~cat:cat_host ~delay f);
          transmit = (fun pkt -> transmit t pkt);
          complete =
            (fun flow_id ->
              let start =
                match Hashtbl.find_opt t.starts flow_id with
                | Some s -> s
                | None -> 0.
              in
              let now = Sim.now sim in
              let fct = now -. start in
              Metrics.incr m_flows_completed;
              if Trace.on t.trace Trace.FlowDone then
                Trace.emit t.trace Trace.FlowDone ~subject:flow_id ~time:now
                  fct;
              Record.complete t.record ~flow:flow_id ~at:now ~fct);
          cfg = config;
        };
    }
  in
  Array.iter
    (fun ls ->
      let[@nf.hot] tx_done () =
        ls.busy <- false;
        try_transmit t ls
      in
      let[@nf.hot] arrive_next () = arrive t (wire_pop ls) in
      ls.tx_done <- tx_done;
      ls.arrive_next <- arrive_next)
    links;
  (* Synchronized periodic feedback updates on every link (§5: PTP). *)
  (match P.update_interval config with
  | Some interval ->
    Sim.periodic_cat sim ~cat:cat_price_update ~start:interval ~interval
      (fun () ->
        Array.iter (fun ls -> ls.engine.Price_engine.update ()) links;
        if Trace.on trace Trace.PriceUpdate then
          Array.iteri
            (fun i ls ->
              Trace.emit trace Trace.PriceUpdate ~subject:i ~time:(Sim.now sim)
                (ls.engine.Price_engine.value ()))
            links)
  | None -> ());
  t

(* Baseline RTT d0: propagation both ways plus one serialization per hop
   for the data packet and the ACK. *)
let compute_d0 t fwd rev =
  let dir path pkt_bytes =
    Array.fold_left
      (fun acc lid ->
        let l = Topology.link t.topo lid in
        acc +. l.Topology.delay +. (pkt_bytes *. 8. /. l.Topology.capacity))
      0. path
  in
  dir fwd (float_of_int Packet.data_size) +. dir rev (float_of_int Packet.ack_size)

let reverse_path t fwd =
  let rev = Array.make (Array.length fwd) (-1) in
  let n = Array.length fwd in
  for i = 0 to n - 1 do
    let l = Topology.link t.topo fwd.(n - 1 - i) in
    match Topology.find_link t.topo ~src:l.Topology.dst ~dst:l.Topology.src with
    | Some r -> rev.(i) <- r
    | None ->
      invalid_arg
        (Printf.sprintf "Network.add_flow: no reverse link for %d"
           l.Topology.link_id)
  done;
  rev

let add_flow t spec =
  if Hashtbl.mem t.senders spec.fs_id then
    invalid_arg "Network.add_flow: duplicate flow id";
  (match
     ( (Topology.node t.topo spec.fs_src).Topology.kind,
       (Topology.node t.topo spec.fs_dst).Topology.kind )
   with
  | Topology.Host, Topology.Host -> ()
  | _ -> invalid_arg "Network.add_flow: endpoints must be hosts");
  let path =
    match spec.fs_path with
    | Some p ->
      if not (Topology.path_is_valid t.topo ~src:spec.fs_src ~dst:spec.fs_dst
                (Array.to_list p))
      then invalid_arg "Network.add_flow: invalid pinned path";
      p
    | None ->
      Array.of_list
        (Routing.ecmp_path t.topo ~src:spec.fs_src ~dst:spec.fs_dst
           ~hash:(spec.fs_id * 2654435761))
  in
  let rpath = reverse_path t path in
  let d0 = compute_d0 t path rpath in
  let line_rate = Topology.path_min_capacity t.topo (Array.to_list path) in
  let sender =
    Host.make_sender t.ctx ~flow:spec.fs_id ~path ~size:spec.fs_size ~d0
      ~line_rate ~protocol:t.protocol ~utility:spec.fs_utility
  in
  let sink =
    let record_rates = t.config.Config.record_rates in
    if record_rates || Trace.on t.trace Trace.RateUpdate then
      Some
        (fun ~time v ->
          if record_rates then
            Record.add t.record Record.Rate ~subject:spec.fs_id ~time v;
          if Trace.on t.trace Trace.RateUpdate then
            Trace.emit t.trace Trace.RateUpdate ~subject:spec.fs_id ~time v)
    else None
  in
  let receiver = Host.make_receiver t.ctx ~flow:spec.fs_id ~rpath ~sink in
  Hashtbl.replace t.senders spec.fs_id sender;
  Hashtbl.replace t.receivers spec.fs_id receiver;
  Hashtbl.replace t.paths spec.fs_id path;
  Hashtbl.replace t.rtts spec.fs_id d0;
  Hashtbl.replace t.starts spec.fs_id spec.fs_start;
  Sim.schedule_cat t.sim ~cat:cat_flow_start ~at:spec.fs_start (fun () ->
      Metrics.incr m_flows_started;
      if Trace.on t.trace Trace.FlowStart then
        Trace.emit t.trace Trace.FlowStart ~subject:spec.fs_id
          ~time:(Sim.now t.sim) spec.fs_size;
      Host.start t.ctx sender)

let stop_flow_at t ~id at =
  match Hashtbl.find_opt t.senders id with
  | None -> invalid_arg "Network.stop_flow_at: unknown flow"
  | Some s ->
    Sim.schedule_cat t.sim ~cat:cat_flow_stop ~at (fun () ->
        if not (Host.completed s || Host.stopped s) then
          Metrics.incr m_flows_stopped;
        Host.stop s)

let run t ~until =
  let wall0 = Nf_util.Profile.now () in
  let sim0 = Sim.now t.sim in
  Sim.run ~until t.sim;
  let sim_dt = Sim.now t.sim -. sim0 in
  if sim_dt > 0. then
    Metrics.set_gauge m_wall_per_sim_second
      ((Nf_util.Profile.now () -. wall0) /. sim_dt)

(* ------------------------------------------------------------------ *)
(* Measurement *)

let measured_rate t id =
  match Hashtbl.find_opt t.receivers id with
  | None -> None
  | Some r -> Host.measured_rate r

let rate_series t id = Record.find t.record Record.Rate ~subject:id

let received_bytes t id =
  match Hashtbl.find_opt t.receivers id with
  | None -> 0.
  | Some r -> Host.received_bytes r

let fct t id = Record.fct t.record id

let completions t = Record.completions t.record

let queue_bytes t ~link = t.links.(link).qdisc.Queue_disc.byte_length ()

let total_drops t =
  Array.fold_left (fun acc ls -> acc + ls.qdisc.Queue_disc.drops ()) 0 t.links

let link_price t ~link = t.links.(link).engine.Price_engine.value ()

let link_delivered_bytes t ~link = float_of_int t.links.(link).delivered

let monitor_links t ~links ~every =
  List.iter
    (fun link ->
      if link < 0 || link >= Array.length t.links then
        invalid_arg "Network.monitor_links: bad link id")
    links;
  Sim.periodic_cat t.sim ~cat:cat_monitor ~interval:every (fun () ->
      let now = Sim.now t.sim in
      List.iter
        (fun link ->
          let ls = t.links.(link) in
          Record.add t.record Record.Queue ~subject:link ~time:now
            (float_of_int (ls.qdisc.Queue_disc.byte_length ()));
          Record.add t.record Record.Price ~subject:link ~time:now
            (ls.engine.Price_engine.value ());
          Record.add t.record Record.Drops ~subject:link ~time:now
            (float_of_int (ls.qdisc.Queue_disc.drops ())))
        links)

let monitor_metrics ?(registry = Metrics.global) t ~every =
  Sim.periodic_cat t.sim ~cat:cat_monitor ~interval:every (fun () ->
      Record.snapshot_metrics t.record ~registry ~time:(Sim.now t.sim))

let queue_series t ~link = Record.find t.record Record.Queue ~subject:link

let price_series t ~link = Record.find t.record Record.Price ~subject:link

let flow_path t id =
  match Hashtbl.find_opt t.paths id with
  | Some p -> Array.copy p
  | None -> invalid_arg "Network.flow_path: unknown flow"

let baseline_rtt t id =
  match Hashtbl.find_opt t.rtts id with
  | Some d -> d
  | None -> invalid_arg "Network.baseline_rtt: unknown flow"
