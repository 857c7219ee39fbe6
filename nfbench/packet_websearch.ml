(* packet_websearch: the packet-level realization (Swift + xWI prices).

   Input: the paper leaf-spine (128 servers, 10/40 Gbps), the [numfabric]
   protocol, websearch flow sizes rounded up to whole packets, Poisson
   arrivals at 60% of aggregate host capacity over a fixed horizon, all
   drawn from the seed. Op: one [Network.run] over the next simulated
   slice; the ops tile the horizon. Each slice is sized from the event
   rate of the one before to hold about [events_per_op] events, so ops
   are alike in work while the fabric fills up; the sizing depends only
   on event counts, so the slices repeat exactly for a seed. Arrivals
   follow their schedule whatever the simulator's speed, but the
   simulator has no wall-clock deadline, so this is a fixed amount of
   work rather than a load test.

   Only [nf_engine] and [nf_sim] run here: the [nf_num] solver never
   does, which makes this workload the control for solver changes.

   The traced pass turns on the engine's per-category [Profile] and
   [Gcstats] accounting and reads the packet handlers' time and bytes per
   event from them. *)

module Builders = Nf_topo.Builders
module Routing = Nf_topo.Routing
module Topology = Nf_topo.Topology
module Network = Nf_sim.Network
module Traffic = Nf_workload.Traffic
module Size_dist = Nf_workload.Size_dist
module Metrics = Nf_util.Metrics
module Profile = Nf_util.Profile
module Gcstats = Nf_util.Gcstats
module Rng = Nf_util.Rng

type size = {
  horizon : float;  (* simulated seconds *)
  events_per_op : int;
  setups : int;  (* setup_s samples *)
  setup_batch : int;  (* set-ups per sample *)
}

(* The fabric simulates about 1.5 ms a second on a 2-core VM (about
   1.2M events a second), so a 30 s run covers 45 ms in some 2000 ops. A
   set-up takes about 25 ms, so a setup_s sample is two of them. *)
let full ~seconds =
  {
    horizon = 1.5e-3 *. float_of_int seconds;
    events_per_op = 15_000;
    setups = 11;
    setup_batch = 2;
  }

let tiny =
  { horizon = 200e-6; events_per_op = 500; setups = 2; setup_batch = 1 }

(* Offered load, as a share of aggregate host capacity. *)
let load = 0.6

let first_slice = 20e-6

let min_slice = 1e-6

(* While the fabric is still empty a slice holds few events; doubling at
   most per op keeps the next one from overshooting. *)
let max_growth = 2.

let mss = float_of_int Nf_sim.Packet.data_size

(* A flow that arrives in the first half of the horizon and is no larger
   than this share of what its host link carries in half the horizon
   must have completed by the end: it needs at most that share of line
   rate. At the full size that is every flow of at most 1.76 MB; on seed
   1 the smallest flow of that half still running at the end had 8.5 MB. *)
let must_finish_share = 1. /. 16.

type flow = {
  bytes : float;
  start : float;
  must_finish : bool;
}

let setup ~size ~seed =
  let ls = Builders.paper_leaf_spine () in
  let topo = ls.Builders.topo in
  let hosts = ls.Builders.servers in
  let rng = Rng.create ~seed in
  let pairs = Traffic.random_pairs rng ~hosts ~n:4096 in
  let dist = Size_dist.websearch in
  let host_capacity =
    (Topology.link topo (List.hd (Topology.out_links topo hosts.(0)))).Topology.capacity
  in
  let rate_per_sec =
    Traffic.load_to_rate ~load ~n_hosts:(Array.length hosts) ~host_capacity
      ~mean_size:(Size_dist.mean dist)
  in
  let arrivals =
    Traffic.poisson_arrivals rng ~pairs ~size_dist:dist ~rate_per_sec ~duration:size.horizon
  in
  let net = Network.create ~topology:topo ~protocol:(Nf_sim.Protocols.get "numfabric") () in
  let router = Routing.router topo in
  let utility = Nf_num.Utility.proportional_fair () in
  let half = size.horizon /. 2. in
  let must_finish_bytes = must_finish_share *. half *. host_capacity /. 8. in
  let flows =
    List.mapi
      (fun id { Traffic.at; size = s; pair = { Traffic.src; dst } } ->
        let bytes = Float.ceil (s /. mss) *. mss in
        let path =
          Array.of_list (Routing.ecmp_path_fast router ~src ~dst ~hash:(id * 2654435761))
        in
        Network.add_flow net (Network.flow ~path ~utility ~size:bytes ~start:at ~id ~src ~dst ());
        { bytes; start = at; must_finish = at <= half && bytes <= must_finish_bytes })
      arrivals
  in
  (net, Array.of_list flows)

(* The simulator's global counters, read as deltas around a pass. *)
let counter_names =
  [
    ("sim.packets_delivered", "nf_sim_packets_delivered_total");
    ("sim.drops", "nf_sim_packets_dropped_total");
    ("sim.ecn_marks", "nf_sim_ecn_marks_total");
    ("sim.flows_completed", "nf_sim_flows_completed_total");
  ]

let counters () =
  let values =
    Metrics.fold_values Metrics.global ~init:[] ~f:(fun acc ~id:_ ~name v -> (name, v) :: acc)
  in
  List.map
    (fun (key, name) ->
      (key, int_of_float (Option.value (List.assoc_opt name values) ~default:0.)))
    counter_names

type pass = {
  times : float array;  (* CPU seconds per op *)
  busy : float;  (* CPU seconds of all ops *)
  events : int;
  counts : (string * int) list;  (* counter deltas *)
  gc : int * int;
  failed : int;  (* ops in which a flow completed short *)
  problems : string list;
}

(* Every completed flow must have delivered exactly its size; a failure
   counts against the op it completed in. Every [must_finish] flow must
   have completed, and some flow must have; a failure counts against the
   last op. *)
let check_deliveries ~ends net flows =
  let bad_ops = Hashtbl.create 8 in
  let last = Array.length ends - 1 in
  let short =
    List.filter_map
      (fun (id, fct) ->
        let f = flows.(id) in
        match Gate.delivery ~flow:id ~size:f.bytes ~received:(Network.received_bytes net id) with
        | None -> None
        | Some why ->
          let at = f.start +. fct in
          let rec op i = if i >= last || at <= ends.(i) then i else op (i + 1) in
          Hashtbl.replace bad_ops (op 0) ();
          Some why)
      (Network.completions net)
  in
  let unfinished =
    List.filter_map
      (fun id ->
        let f = flows.(id) in
        if f.must_finish && Option.is_none (Network.fct net id) then begin
          Hashtbl.replace bad_ops last ();
          Some (Printf.sprintf "flow %d (%.0f bytes, arrived at %.3g s) did not complete" id
                  f.bytes f.start)
        end
        else None)
      (List.init (Array.length flows) Fun.id)
  in
  let none =
    if List.is_empty (Network.completions net) then begin
      Hashtbl.replace bad_ops last ();
      [ "no flow completed" ]
    end
    else []
  in
  (Hashtbl.length bad_ops, short @ unfinished @ none)

(* [tick ~progress] runs after every op, off the clock; progress is
   simulated time. *)
let pass ?(tick = fun ~progress:_ -> ()) ~size ?on_slice net flows =
  let sim = Network.sim net in
  let times = ref [] and ends = ref [] in
  let c0 = counters () in
  let minor0, major0 = Outcome.gc_counts () in
  let busy = ref 0. and slice = ref first_slice and clock = ref 0. and i = ref 0 in
  while !clock < size.horizon do
    let until = Float.min size.horizon (!clock +. !slice) in
    let ev0 = Nf_engine.Sim.events_processed sim in
    let t0 = Spans.now () in
    (match on_slice with
    | None -> Network.run net ~until
    | Some f -> f !i (fun () -> Network.run net ~until));
    let dt = Spans.now () -. t0 in
    times := dt :: !times;
    ends := until :: !ends;
    busy := !busy +. dt;
    let ev = Nf_engine.Sim.events_processed sim - ev0 in
    let scale = float_of_int size.events_per_op /. float_of_int (Stdlib.max 1 ev) in
    slice := Float.max min_slice (!slice *. Float.min max_growth scale);
    clock := until;
    incr i;
    tick ~progress:(until /. size.horizon)
  done;
  let minor1, major1 = Outcome.gc_counts () in
  let c1 = counters () in
  let ends = Array.of_list (List.rev !ends) in
  let failed, problems = check_deliveries ~ends net flows in
  {
    times = Array.of_list (List.rev !times);
    busy = !busy;
    events = Nf_engine.Sim.events_processed (Network.sim net);
    counts = List.map2 (fun (k, a) (_, b) -> (k, b - a)) c0 c1;
    gc = (minor1 - minor0, major1 - major0);
    failed;
    problems;
  }

let fingerprint p = ("engine.events", p.events) :: p.counts

(* Per-event time (ns) and bytes of one engine category. *)
let category name =
  let calls, secs =
    match List.find_opt (fun (n, _, _) -> String.equal n name) (Profile.categories ()) with
    | Some (_, calls, secs) -> (calls, secs)
    | None -> (0, 0.)
  in
  let bytes =
    match
      List.find_opt
        (fun (id, _, _) -> String.equal (Profile.cat_name id) name)
        (Gcstats.categories ())
    with
    | Some (_, c, b) when c > 0 -> b /. float_of_int c
    | _ -> 0.
  in
  ((if calls = 0 then 0. else secs *. 1e9 /. float_of_int calls), bytes)

let handler_categories =
  [
    ("sim.pkt_arrive", "pkt-arrive");
    ("sim.link_tx", "link-tx");
    ("sim.price_update", "price-update");
    ("sim.flow_start", "flow-start");
  ]

let run ~size ~seed ~trace ~spans_out =
  if not trace then begin
    let sampler, (net, flows) =
      Outcome.setup ~samples:size.setups ~batch:size.setup_batch
        (fun () -> setup ~size ~seed)
    in
    let p = pass ~tick:(Outcome.tick sampler) ~size net flows in
    let setup_s = Outcome.setup_s sampler in
    let times = Calib.reference_times sampler.Outcome.calib p.times in
    let ms = 1e3 in
    {
      Outcome.attempted = Array.length times;
      failed = p.failed;
      problems = p.problems;
      metrics =
        [
          Outcome.metric "setup_s" "s" setup_s;
          Outcome.metric "op_p50_ms" "ms" (ms *. Outcome.percentile times 50.);
          Outcome.metric "ops_per_s" "1/s" (float_of_int (Array.length times) /. Outcome.sum times);
        ];
      fingerprint = fingerprint p;
    }
  end
  else begin
    let net, flows = setup ~size ~seed in
    let calib = Calib.create () in
    let p = pass ~tick:(fun ~progress:_ -> Calib.sample calib) ~size net flows in
    let times = Calib.reference_times calib p.times in
    let busy = Outcome.sum times in
    let net, flows = setup ~size ~seed in
    let sp = Spans.create () in
    let k_run = Spans.kind sp "network.run" in
    Profile.reset ();
    Gcstats.reset ();
    Profile.set_enabled true;
    Gcstats.set_enabled true;
    let traced =
      Fun.protect
        ~finally:(fun () ->
          Profile.set_enabled false;
          Gcstats.set_enabled false)
        (fun () ->
          pass ~size net flows ~on_slice:(fun i run ->
              Spans.set_op sp i;
              let s = Spans.enter sp k_run in
              run ();
              Spans.leave sp s))
    in
    Spans.write sp spans_out;
    let minor, major = p.gc in
    let problems =
      (if fingerprint traced = fingerprint p then []
       else [ "traced pass differs from the untraced pass in its counts" ])
      @ p.problems @ traced.problems
    in
    let handlers =
      List.concat_map
        (fun (key, cat) ->
          let ns, bytes = category cat in
          [ Outcome.metric (key ^ "_ns") "ns" ns; Outcome.metric (key ^ "_bytes") "B" bytes ])
        handler_categories
    in
    {
      Outcome.attempted = Array.length p.times;
      failed = p.failed;
      problems;
      metrics =
        [
          Outcome.metric "op.p99_ms" "ms" (1e3 *. Outcome.percentile times 99.);
          Outcome.metric "calib.pass_ms" "ms" (1e3 *. Calib.median_pass calib);
          Outcome.metric "engine.events" "count" (float_of_int p.events);
          Outcome.metric "engine.events_per_s" "1/s" (float_of_int p.events /. busy);
          Outcome.metric "sim.wall_s_per_sim_s" "s/s" (busy /. size.horizon);
        ]
        @ handlers
        @ List.map (fun (k, v) -> Outcome.metric k "count" (float_of_int v)) p.counts
        @ [
            Outcome.metric "gc.minor_collections" "count" (float_of_int minor);
            Outcome.metric "gc.major_collections" "count" (float_of_int major);
            Outcome.metric "trace.overhead_pct" "%" (100. *. ((traced.busy /. p.busy) -. 1.));
          ];
      fingerprint = fingerprint p;
    }
  end
