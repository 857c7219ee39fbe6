(* Tests for nf_sim: queue disciplines, price engines, the protocol
   registry, and end-to-end packet-level behaviour of all transports. *)

module Packet = Nf_sim.Packet
module Queue_disc = Nf_sim.Queue_disc
module Price_engine = Nf_sim.Price_engine
module Network = Nf_sim.Network
module Builders = Nf_topo.Builders
module Utility = Nf_num.Utility
module Fcmp = Nf_util.Fcmp

let proto = Nf_sim.Protocols.get

let quick name f = Alcotest.test_case name `Quick f

let check_rate what ~frac expected actual =
  if not (Fcmp.within_fraction ~frac ~actual ~target:expected) then
    Alcotest.failf "%s: expected %.3g within %g%%, got %.3g" what expected
      (100. *. frac) actual

let mk ?(flow = 0) ?(seq = 0) ?(size = 1500) ?(vpl = 1500.) ?(prio = infinity) () =
  let p = Packet.make_data ~flow ~seq ~size ~path:[| 0 |] ~now:0. in
  p.Packet.fl.Packet.virtual_packet_len <- vpl;
  p.Packet.fl.Packet.priority <- prio;
  p

(* ------------------------------------------------------------------ *)
(* Queue disciplines *)

let test_fifo_order_and_drop () =
  let q = Queue_disc.fifo ~limit_bytes:4000 () in
  Alcotest.(check bool) "e1" true (q.Queue_disc.enqueue (mk ~seq:1 ()));
  Alcotest.(check bool) "e2" true (q.Queue_disc.enqueue (mk ~seq:2 ()));
  Alcotest.(check bool) "e3 dropped (over limit)" false
    (q.Queue_disc.enqueue (mk ~seq:3 ()));
  Alcotest.(check int) "drops" 1 (q.Queue_disc.drops ());
  Alcotest.(check int) "bytes" 3000 (q.Queue_disc.byte_length ());
  (match q.Queue_disc.dequeue () with
  | Some p -> Alcotest.(check int) "FIFO head" 1 p.Packet.seq
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "bytes after dequeue" 1500 (q.Queue_disc.byte_length ())

let test_ecn_marking () =
  let q = Queue_disc.ecn_fifo ~mark_threshold_bytes:2000 () in
  let p1 = mk ~seq:1 () and p2 = mk ~seq:2 () and p3 = mk ~seq:3 () in
  ignore (q.Queue_disc.enqueue p1);
  ignore (q.Queue_disc.enqueue p2);
  ignore (q.Queue_disc.enqueue p3);
  Alcotest.(check bool) "first unmarked" false p1.Packet.ecn;
  Alcotest.(check bool) "second unmarked (at 1500 <= K)" false p2.Packet.ecn;
  Alcotest.(check bool) "third marked (3000 > K)" true p3.Packet.ecn

let test_stfq_weighted_service () =
  let q = Queue_disc.stfq () in
  (* Flow 0 has weight 1 (vpl 1500), flow 1 weight 3 (vpl 500). *)
  for i = 0 to 11 do
    ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:i ~vpl:1500. ()));
    ignore (q.Queue_disc.enqueue (mk ~flow:1 ~seq:i ~vpl:500. ()))
  done;
  let served = Array.make 2 0 in
  for _ = 1 to 12 do
    match q.Queue_disc.dequeue () with
    | Some p -> served.(p.Packet.flow) <- served.(p.Packet.flow) + 1
    | None -> Alcotest.fail "queue empty early"
  done;
  (* In 12 services the 3:1 weights should give roughly 9:3. *)
  Alcotest.(check bool) "weighted service ratio" true
    (served.(1) >= 8 && served.(1) <= 10)

let test_stfq_control_packets_jump () =
  let q = Queue_disc.stfq () in
  for i = 0 to 5 do
    ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:i ~vpl:1500. ()))
  done;
  (* A control packet (vpl = 0) enqueued last should be served at the
     current virtual time, i.e. before most queued data. *)
  let ack = Packet.make_ack ~data:(mk ~flow:7 ()) ~path:[| 0 |] ~now:0. in
  ignore (q.Queue_disc.enqueue ack);
  ignore (q.Queue_disc.dequeue ());
  (* after one data service, V > 0 *)
  match q.Queue_disc.dequeue () with
  | Some p -> Alcotest.(check int) "ack served promptly" 7 p.Packet.flow
  | None -> Alcotest.fail "empty"

let test_stfq_per_flow_order () =
  let q = Queue_disc.stfq () in
  for i = 0 to 9 do
    ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:i ~vpl:(1500. /. float_of_int (1 + i)) ()))
  done;
  let last = ref (-1) in
  let ok = ref true in
  for _ = 1 to 10 do
    match q.Queue_disc.dequeue () with
    | Some p ->
      if p.Packet.seq <> !last + 1 then ok := false;
      last := p.Packet.seq
    | None -> ok := false
  done;
  Alcotest.(check bool) "packets of one flow stay in order" true !ok

let test_dequeue_exn_matches_dequeue () =
  (* [dequeue_exn] is the allocation-free twin the transmit loop uses:
     same service order as [dequeue], Invalid_argument on empty. *)
  List.iter
    (fun (name, make_q) ->
      let q = make_q () in
      for i = 0 to 7 do
        ignore
          (q.Queue_disc.enqueue
             (mk ~flow:(i mod 3) ~seq:i ~vpl:(500. *. float_of_int (1 + (i mod 4))) ())
            : bool)
      done;
      let q' = make_q () in
      for i = 0 to 7 do
        ignore
          (q'.Queue_disc.enqueue
             (mk ~flow:(i mod 3) ~seq:i ~vpl:(500. *. float_of_int (1 + (i mod 4))) ())
            : bool)
      done;
      for n = 1 to 8 do
        match q.Queue_disc.dequeue () with
        | None -> Alcotest.failf "%s: empty after %d services" name (n - 1)
        | Some expected ->
            let got = q'.Queue_disc.dequeue_exn () in
            Alcotest.(check int)
              (Printf.sprintf "%s: service %d same flow" name n)
              expected.Packet.flow got.Packet.flow;
            Alcotest.(check int)
              (Printf.sprintf "%s: service %d same seq" name n)
              expected.Packet.seq got.Packet.seq
      done;
      Alcotest.(check int)
        (Printf.sprintf "%s: bytes drained" name)
        0
        (q'.Queue_disc.byte_length ());
      Alcotest.check_raises
        (Printf.sprintf "%s: dequeue_exn on empty" name)
        (Invalid_argument "Queue_disc.dequeue_exn: empty queue")
        (fun () -> ignore (q'.Queue_disc.dequeue_exn () : Packet.t)))
    [
      ("fifo", fun () -> Queue_disc.fifo ~limit_bytes:100_000 ());
      ("ecn_fifo", fun () -> Queue_disc.ecn_fifo ~mark_threshold_bytes:3000 ());
      ("stfq", fun () -> Queue_disc.stfq ());
      ("pfabric", fun () -> Queue_disc.pfabric ~limit_bytes:100_000 ());
    ]

let test_stfq_flow_table_growth () =
  (* STFQ's finish tags live in a growable array indexed by flow id; a
     large id must grow the table, not crash, and ids never seen before
     start at finish tag 0 (served at the current virtual time). *)
  let q = Queue_disc.stfq () in
  ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:0 ~vpl:1500. ()) : bool);
  ignore (q.Queue_disc.dequeue_exn () : Packet.t);
  (* Flow 0 now owes virtual time (finish tag 1500); a brand-new large id
     starts at tag 0 and must be served first. *)
  ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:1 ~vpl:1500. ()) : bool);
  ignore (q.Queue_disc.enqueue (mk ~flow:5000 ~seq:0 ~vpl:1500. ()) : bool);
  let first = q.Queue_disc.dequeue_exn () in
  let second = q.Queue_disc.dequeue_exn () in
  Alcotest.(check int) "new large flow id served first" 5000 first.Packet.flow;
  Alcotest.(check int) "backlogged flow served second" 0 second.Packet.flow;
  Alcotest.check_raises "negative flow id rejected"
    (Invalid_argument "Queue_disc.stfq: negative flow id") (fun () ->
      ignore (q.Queue_disc.enqueue (mk ~flow:(-1) ()) : bool))

let test_pfabric_priority () =
  let q = Queue_disc.pfabric ~limit_bytes:6000 () in
  ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:0 ~prio:9000. ()));
  ignore (q.Queue_disc.enqueue (mk ~flow:1 ~seq:0 ~prio:3000. ()));
  ignore (q.Queue_disc.enqueue (mk ~flow:2 ~seq:0 ~prio:6000. ()));
  (match q.Queue_disc.dequeue () with
  | Some p -> Alcotest.(check int) "smallest remaining first" 1 p.Packet.flow
  | None -> Alcotest.fail "empty");
  (* Fill up, then a higher-priority (smaller) arrival evicts the worst. *)
  ignore (q.Queue_disc.enqueue (mk ~flow:3 ~seq:0 ~prio:7000. ()));
  ignore (q.Queue_disc.enqueue (mk ~flow:4 ~seq:0 ~prio:8000. ()));
  Alcotest.(check int) "full" 4 (q.Queue_disc.packet_count ());
  Alcotest.(check bool) "urgent arrival accepted" true
    (q.Queue_disc.enqueue (mk ~flow:5 ~seq:0 ~prio:100. ()));
  Alcotest.(check int) "one drop" 1 (q.Queue_disc.drops ());
  (* Flow 0 (prio 9000) must be the one that was evicted. *)
  let seen = ref [] in
  let rec drain () =
    match q.Queue_disc.dequeue () with
    | Some p ->
      seen := p.Packet.flow :: !seen;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check bool) "worst evicted" false (List.mem 0 !seen)

let test_pfabric_same_flow_in_order () =
  let q = Queue_disc.pfabric () in
  (* Later packets of a flow carry smaller remaining size; dequeue must
     still deliver the earliest packet of that flow first. *)
  ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:0 ~prio:9000. ()));
  ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:1 ~prio:7500. ()));
  ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:2 ~prio:6000. ()));
  match q.Queue_disc.dequeue () with
  | Some p -> Alcotest.(check int) "earliest of the flow" 0 p.Packet.seq
  | None -> Alcotest.fail "empty"

let test_stfq_weight_change_ordering () =
  (* Start tags are S = max(V, F_prev(flow)); a mid-stream weight change
     (vpl 1500 -> 500 on flow 1) affects only the tags assigned after it.
     With everything enqueued at V = 0:
       flow 0 (vpl 1500 throughout):        S = 0, 1500, 3000, 4500
       flow 1 (vpl 1500, 1500 then 500, 500): S = 0, 1500, 3000, 3500
     so flow 1's last packet must be served before flow 0's last, while
     each flow's packets still leave in sequence order. *)
  let q = Queue_disc.stfq () in
  for i = 0 to 3 do
    ignore (q.Queue_disc.enqueue (mk ~flow:0 ~seq:i ~vpl:1500. ()));
    let vpl = if i < 2 then 1500. else 500. in
    ignore (q.Queue_disc.enqueue (mk ~flow:1 ~seq:i ~vpl ()))
  done;
  let served = ref [] in
  let rec drain () =
    match q.Queue_disc.dequeue () with
    | Some p ->
      served := (p.Packet.flow, p.Packet.seq) :: !served;
      drain ()
    | None -> ()
  in
  drain ();
  let served = List.rev !served in
  Alcotest.(check int) "all served" 8 (List.length served);
  let pos x =
    let rec go i = function
      | [] -> Alcotest.failf "packet (%d, %d) never served" (fst x) (snd x)
      | y :: _ when y = x -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 served
  in
  Alcotest.(check bool) "re-weighted flow finishes first" true
    (pos (1, 3) < pos (0, 3));
  List.iter
    (fun f ->
      let seqs =
        List.filter_map (fun (fl, s) -> if fl = f then Some s else None) served
      in
      Alcotest.(check (list int))
        (Printf.sprintf "flow %d in order" f)
        [ 0; 1; 2; 3 ] seqs)
    [ 0; 1 ]

let test_fifo_drop_accounting () =
  (* Both FIFO variants count every rejected packet and never hold more
     than limit_bytes. 10 x 1500 B against a 6000 B limit: 4 fit. *)
  List.iter
    (fun (label, q) ->
      let accepted = ref 0 in
      for i = 1 to 10 do
        if q.Queue_disc.enqueue (mk ~seq:i ()) then incr accepted
      done;
      Alcotest.(check int) (label ^ ": accepted") 4 !accepted;
      Alcotest.(check int) (label ^ ": drops") 6 (q.Queue_disc.drops ());
      Alcotest.(check bool) (label ^ ": within limit") true
        (q.Queue_disc.byte_length () <= 6000))
    [
      ("fifo", Queue_disc.fifo ~limit_bytes:6000 ());
      ("ecn_fifo", Queue_disc.ecn_fifo ~limit_bytes:6000 ~mark_threshold_bytes:3000 ());
    ]

let test_drops_counter_monotone () =
  (* The drops counter never decreases (dequeues must not "refund" drops)
     and ends exactly equal to the number of rejected enqueues. *)
  let q = Queue_disc.fifo ~limit_bytes:3000 () in
  let rejected = ref 0 in
  let last = ref 0 in
  for i = 1 to 30 do
    if not (q.Queue_disc.enqueue (mk ~seq:i ())) then incr rejected;
    let d = q.Queue_disc.drops () in
    Alcotest.(check bool) "monotone" true (d >= !last);
    last := d;
    if i mod 3 = 0 then ignore (q.Queue_disc.dequeue ())
  done;
  Alcotest.(check int) "drops = rejections" !rejected (q.Queue_disc.drops ());
  Alcotest.(check bool) "some drops happened" true (!rejected > 0)

(* ------------------------------------------------------------------ *)
(* Price engines *)

let test_xwi_engine_stamps () =
  let e = Price_engine.xwi ~capacity:1e10 () in
  (* Push the price up via a positive residual at full utilization. *)
  let fill () =
    (* one update interval worth of bytes: 30us * 10G / 8 = 37500 B *)
    for _ = 1 to 25 do
      let p = mk () in
      p.Packet.fl.Packet.normalized_residual <- 1e-10;
      e.Price_engine.on_enqueue p;
      e.Price_engine.on_dequeue p
    done
  in
  fill ();
  e.Price_engine.update ();
  let price1 = e.Price_engine.value () in
  Alcotest.(check bool) "price rose" true (price1 > 0.);
  let p = mk () in
  e.Price_engine.on_dequeue p;
  Alcotest.(check (float 1e-30)) "price stamped" price1 p.Packet.fl.Packet.path_price;
  Alcotest.(check int) "path len incremented" 1 p.Packet.path_len;
  (* With no traffic the price decays. *)
  e.Price_engine.update ();
  e.Price_engine.update ();
  Alcotest.(check bool) "idle decay" true (e.Price_engine.value () < price1)

let test_dgd_engine_overload () =
  let queue = ref 0 in
  let e =
    Price_engine.dgd ~capacity:1e10 ~queue_bytes:(fun () -> !queue)
      ~price_scale:1e-10 ()
  in
  (* Overload: more than 16us * 10G / 8 = 20000 bytes serviced. *)
  for _ = 1 to 20 do
    e.Price_engine.on_dequeue (mk ())
  done;
  queue := 10_000;
  e.Price_engine.update ();
  Alcotest.(check bool) "price rises under overload" true (e.Price_engine.value () > 0.)

let test_rcp_engine () =
  let queue = ref 0 in
  let e =
    Price_engine.rcp ~alpha:1. ~capacity:1e10 ~queue_bytes:(fun () -> !queue)
      ~initial_fair_rate:5e9 ()
  in
  (* Idle: fair rate should grow. *)
  e.Price_engine.update ();
  Alcotest.(check bool) "fair rate grows when idle" true (e.Price_engine.value () > 5e9);
  (* Heavy overload shrinks it. *)
  let r = e.Price_engine.value () in
  for _ = 1 to 40 do
    e.Price_engine.on_dequeue (mk ())
  done;
  queue := 100_000;
  e.Price_engine.update ();
  Alcotest.(check bool) "fair rate shrinks under overload" true
    (e.Price_engine.value () < r)

(* ------------------------------------------------------------------ *)
(* End-to-end networks *)

let rate net id =
  match Network.measured_rate net id with
  | Some r -> r
  | None -> Alcotest.failf "flow %d: no rate measured" id

let test_numfabric_single_bottleneck () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") () in
  let u = Utility.proportional_fair () in
  Array.iteri
    (fun i s ->
      Network.add_flow net
        (Network.flow ~utility:u ~id:i ~src:s ~dst:sb.Builders.receiver ()))
    sb.Builders.senders;
  Network.run net ~until:3e-3;
  check_rate "flow 0" ~frac:0.05 5e9 (rate net 0);
  check_rate "flow 1" ~frac:0.05 5e9 (rate net 1);
  Alcotest.(check int) "no drops" 0 (Network.total_drops net);
  (* Small standing queue (a few packets), not a full buffer. *)
  Alcotest.(check bool) "small queue" true
    (Network.queue_bytes net ~link:sb.Builders.bottleneck < 30_000)

let test_numfabric_weighted () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") () in
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ~weight:1. ())
       ~id:0 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ());
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ~weight:3. ())
       ~id:1 ~src:sb.Builders.senders.(1) ~dst:sb.Builders.receiver ());
  Network.run net ~until:3e-3;
  check_rate "weight 1" ~frac:0.05 2.5e9 (rate net 0);
  check_rate "weight 3" ~frac:0.05 7.5e9 (rate net 1)

let test_numfabric_parking_lot_optimum () =
  (* Proportional fairness on a 2-link parking lot: the NUM optimum is
     (C/3, 2C/3, 2C/3) — NOT max-min — so this checks that xWI's prices
     actually steer Swift away from plain fair queueing. *)
  let pl = Builders.parking_lot ~n_links:2 () in
  let h = pl.Builders.pl_hosts in
  let net = Network.create ~topology:pl.Builders.pl_topo ~protocol:(proto "numfabric") () in
  let u () = Utility.proportional_fair () in
  Network.add_flow net (Network.flow ~utility:(u ()) ~id:0 ~src:h.(0) ~dst:h.(2) ());
  Network.add_flow net (Network.flow ~utility:(u ()) ~id:1 ~src:h.(0) ~dst:h.(1) ());
  Network.add_flow net (Network.flow ~utility:(u ()) ~id:2 ~src:h.(1) ~dst:h.(2) ());
  Network.run net ~until:4e-3;
  check_rate "long flow C/3" ~frac:0.05 3.333e9 (rate net 0);
  check_rate "local 1" ~frac:0.05 6.667e9 (rate net 1);
  check_rate "local 2" ~frac:0.05 6.667e9 (rate net 2)

let test_numfabric_alpha2_packet () =
  (* alpha = 2 on the parking lot: optimum (y/sqrt 2, y, y), y = C/(1+2^-.5).
     Exercises the small-price regime (p* ~ 1e-20). *)
  let pl = Builders.parking_lot ~n_links:2 () in
  let h = pl.Builders.pl_hosts in
  let net = Network.create ~topology:pl.Builders.pl_topo ~protocol:(proto "numfabric") () in
  let u () = Utility.alpha_fair ~alpha:2. () in
  Network.add_flow net (Network.flow ~utility:(u ()) ~id:0 ~src:h.(0) ~dst:h.(2) ());
  Network.add_flow net (Network.flow ~utility:(u ()) ~id:1 ~src:h.(0) ~dst:h.(1) ());
  Network.add_flow net (Network.flow ~utility:(u ()) ~id:2 ~src:h.(1) ~dst:h.(2) ());
  Network.run net ~until:4e-3;
  let y = 1e10 /. (1. +. (1. /. sqrt 2.)) in
  check_rate "long flow" ~frac:0.07 (y /. sqrt 2.) (rate net 0);
  check_rate "local" ~frac:0.07 y (rate net 1)

let test_flow_completion () =
  let sb = Builders.single_bottleneck ~n_senders:1 () in
  let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") () in
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ())
       ~size:1.5e6 ~id:0 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ());
  Network.run net ~until:10e-3;
  match Network.fct net 0 with
  | None -> Alcotest.fail "flow did not complete"
  | Some fct ->
    (* 1.5 MB at 10 Gbps = 1.2 ms + slack for ramp-up and RTTs. *)
    Alcotest.(check bool) "fct near line-rate time" true (fct >= 1.2e-3 && fct < 1.5e-3)

let test_completion_increments_metric () =
  (* Regression: nf_sim_flows_completed_total must move when a finite flow
     finishes. (It legitimately stays 0 across the quick sweep — those
     experiments run persistent flows torn down by stop_flow_at, which
     count under nf_sim_flows_stopped_total instead.) *)
  let m =
    Nf_util.Metrics.counter Nf_util.Metrics.global "nf_sim_flows_completed_total"
  in
  let before = Nf_util.Metrics.counter_value m in
  let sb = Builders.single_bottleneck ~n_senders:1 () in
  let net =
    Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") ()
  in
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ())
       ~size:1.5e5 ~id:0 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ());
  Network.run net ~until:10e-3;
  Alcotest.(check bool) "flow completed" true (Network.fct net 0 <> None);
  Alcotest.(check bool) "completed counter incremented" true
    (Nf_util.Metrics.counter_value m > before)

let test_stop_flow_releases_bandwidth () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") () in
  let u () = Utility.proportional_fair () in
  Network.add_flow net
    (Network.flow ~utility:(u ()) ~id:0 ~src:sb.Builders.senders.(0)
       ~dst:sb.Builders.receiver ());
  Network.add_flow net
    (Network.flow ~utility:(u ()) ~id:1 ~src:sb.Builders.senders.(1)
       ~dst:sb.Builders.receiver ());
  Network.stop_flow_at net ~id:1 2e-3;
  Network.run net ~until:5e-3;
  check_rate "survivor takes the link" ~frac:0.05 1e10 (rate net 0)

let test_dctcp_shares_link () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "dctcp") () in
  Array.iteri
    (fun i s ->
      Network.add_flow net (Network.flow ~id:i ~src:s ~dst:sb.Builders.receiver ()))
    sb.Builders.senders;
  Network.run net ~until:5e-3;
  let total = rate net 0 +. rate net 1 in
  check_rate "full utilization" ~frac:0.12 1e10 total;
  (* The marking threshold keeps the queue around K, far below the buffer. *)
  Alcotest.(check bool) "bounded queue" true
    (Network.queue_bytes net ~link:sb.Builders.bottleneck < 120_000)

let test_rcp_fair_share () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let net =
    Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "rcp") ()
  in
  Array.iteri
    (fun i s ->
      Network.add_flow net (Network.flow ~id:i ~src:s ~dst:sb.Builders.receiver ()))
    sb.Builders.senders;
  Network.run net ~until:5e-3;
  check_rate "rcp flow 0" ~frac:0.15 5e9 (rate net 0);
  check_rate "rcp flow 1" ~frac:0.15 5e9 (rate net 1)

let test_dgd_converges_roughly () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let config =
    {
      Nf_sim.Config.default with
      Nf_sim.Config.dgd =
        { Nf_sim.Config.default_dgd with Nf_sim.Config.dgd_price_scale = 2e-10 };
    }
  in
  let net = Network.create ~config ~topology:sb.Builders.sb_topo ~protocol:(proto "dgd") () in
  let u () = Utility.proportional_fair () in
  Array.iteri
    (fun i s ->
      Network.add_flow net
        (Network.flow ~utility:(u ()) ~id:i ~src:s ~dst:sb.Builders.receiver ()))
    sb.Builders.senders;
  Network.run net ~until:8e-3;
  check_rate "dgd flow 0" ~frac:0.2 5e9 (rate net 0);
  check_rate "dgd flow 1" ~frac:0.2 5e9 (rate net 1)

let test_pfabric_preemption () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "pfabric") () in
  Network.add_flow net
    (Network.flow ~size:3e6 ~id:0 ~src:sb.Builders.senders.(0)
       ~dst:sb.Builders.receiver ());
  Network.add_flow net
    (Network.flow ~size:30e3 ~start:0.5e-3 ~id:1 ~src:sb.Builders.senders.(1)
       ~dst:sb.Builders.receiver ());
  Network.run net ~until:20e-3;
  match (Network.fct net 1, Network.fct net 0) with
  | Some small, Some big ->
    (* The small flow preempts: near its solo time, far below fair-share
       time (which would be >= 48 us at 5 Gbps). *)
    Alcotest.(check bool) "small flow preempts" true (small < 45e-6);
    Alcotest.(check bool) "big flow still finishes" true (big < 3.5e-3)
  | _ -> Alcotest.fail "flows did not complete"

let test_conservation_and_paths () =
  let ls = Builders.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:2 () in
  let net = Network.create ~topology:ls.Builders.topo ~protocol:(proto "numfabric") () in
  let s = ls.Builders.servers in
  Network.add_flow net
    (Network.flow ~utility:(Utility.proportional_fair ()) ~id:0 ~src:s.(0) ~dst:s.(3) ());
  Network.run net ~until:2e-3;
  let path = Network.flow_path net 0 in
  Alcotest.(check bool) "cross-leaf path has 4 hops" true (Array.length path = 4);
  Alcotest.(check bool) "baseline rtt positive" true (Network.baseline_rtt net 0 > 0.);
  Alcotest.(check bool) "bytes delivered" true (Network.received_bytes net 0 > 1e5);
  Alcotest.(check int) "no drops" 0 (Network.total_drops net)

let test_add_flow_validation () =
  let sb = Builders.single_bottleneck ~n_senders:1 () in
  let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") () in
  Alcotest.check_raises "missing utility"
    (Invalid_argument "Protocol numfabric: flow needs a utility")
    (fun () ->
      Network.add_flow net
        (Network.flow ~id:0 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ()));
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ())
       ~id:1 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ());
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Network.add_flow: duplicate flow id") (fun () ->
      Network.add_flow net
        (Network.flow
           ~utility:(Utility.proportional_fair ())
           ~id:1 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ()))

let test_numfabric_srpt_preempts () =
  (* Remaining-size weights approximate SRPT: a small flow arriving behind
     a big one finishes near its solo time. *)
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let net =
    Network.create ~topology:sb.Builders.sb_topo
      ~protocol:(proto "numfabric-srpt") ()
  in
  Network.add_flow net
    (Network.flow ~size:3e6 ~id:0 ~src:sb.Builders.senders.(0)
       ~dst:sb.Builders.receiver ());
  Network.add_flow net
    (Network.flow ~size:60e3 ~start:0.5e-3 ~id:1 ~src:sb.Builders.senders.(1)
       ~dst:sb.Builders.receiver ());
  Network.run net ~until:20e-3;
  (match (Network.fct net 1, Network.fct net 0) with
  | Some small, Some big ->
    (* Solo time for 60 KB is ~48 us + ramp-up; fair sharing would take
       ~96 us+. SRPT weights should land well below fair sharing. *)
    Alcotest.(check bool) "small flow strongly prioritized" true (small < 180e-6);
    Alcotest.(check bool) "big flow completes" true (big < 4e-3)
  | _ -> Alcotest.fail "flows did not complete");
  (* Persistent flows cannot use remaining-size weights. *)
  let net2 =
    Network.create ~topology:sb.Builders.sb_topo
      ~protocol:(proto "numfabric-srpt") ()
  in
  Alcotest.check_raises "persistent flow rejected"
    (Invalid_argument "Protocol numfabric-srpt: SRPT weights need a finite flow size")
    (fun () ->
      Network.add_flow net2
        (Network.flow ~id:9 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ()))

let test_link_monitoring () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") () in
  let u = Utility.proportional_fair () in
  Array.iteri
    (fun i s ->
      Network.add_flow net
        (Network.flow ~utility:u ~id:i ~src:s ~dst:sb.Builders.receiver ()))
    sb.Builders.senders;
  Network.monitor_links net ~links:[ sb.Builders.bottleneck ] ~every:50e-6;
  Network.run net ~until:2e-3;
  (match Network.queue_series net ~link:sb.Builders.bottleneck with
  | Some ts -> Alcotest.(check bool) "queue samples" true (Nf_util.Timeseries.length ts > 30)
  | None -> Alcotest.fail "no queue series");
  match Network.price_series net ~link:sb.Builders.bottleneck with
  | Some ts -> (
    match Nf_util.Timeseries.last ts with
    | Some (_, p) -> Alcotest.(check bool) "price converged positive" true (p > 0.)
    | None -> Alcotest.fail "empty price series")
  | None -> Alcotest.fail "no price series"

let test_weight_quantization_still_shares () =
  (* Coarse weight classes distort the allocation but keep it feasible and
     roughly proportional: a 1:4 weight split quantized to powers of 2
     must still favour the heavy flow. *)
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let config =
    {
      Nf_sim.Config.default with
      Nf_sim.Config.swift =
        { Nf_sim.Config.default_swift with Nf_sim.Config.weight_quant_base = Some 2. };
    }
  in
  let net = Network.create ~config ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") () in
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ~weight:1. ())
       ~id:0 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ());
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ~weight:4. ())
       ~id:1 ~src:sb.Builders.senders.(1) ~dst:sb.Builders.receiver ());
  Network.run net ~until:4e-3;
  let r0 = rate net 0 and r1 = rate net 1 in
  Alcotest.(check bool) "heavy flow favoured" true (r1 > 2. *. r0);
  check_rate "full utilization" ~frac:0.1 1e10 (r0 +. r1);
  Alcotest.(check int) "no drops" 0 (Network.total_drops net)

let test_numfabric_on_fat_tree () =
  (* End-to-end generality check on the other canonical DC topology: two
     flows to the same destination share its edge downlink equally. *)
  let ft = Builders.fat_tree ~k:4 () in
  let s = ft.Builders.ft_servers in
  let net = Network.create ~topology:ft.Builders.ft_topo ~protocol:(proto "numfabric") () in
  let u = Utility.proportional_fair () in
  (* s.(0) is in pod 0; s.(8) in pod 2; both send to s.(15) in pod 3. *)
  Network.add_flow net (Network.flow ~utility:u ~id:0 ~src:s.(0) ~dst:s.(15) ());
  Network.add_flow net (Network.flow ~utility:u ~id:1 ~src:s.(8) ~dst:s.(15) ());
  Network.run net ~until:4e-3;
  check_rate "flow 0 half" ~frac:0.06 5e9 (rate net 0);
  check_rate "flow 1 half" ~frac:0.06 5e9 (rate net 1);
  Alcotest.(check int) "no drops" 0 (Network.total_drops net)

let test_rate_series_recording () =
  let sb = Builders.single_bottleneck ~n_senders:1 () in
  let config = { Nf_sim.Config.default with Nf_sim.Config.record_rates = true } in
  let net = Network.create ~config ~topology:sb.Builders.sb_topo ~protocol:(proto "numfabric") () in
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ())
       ~id:0 ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver ());
  Network.run net ~until:1e-3;
  match Network.rate_series net 0 with
  | Some ts ->
    Alcotest.(check bool) "series recorded" true (Nf_util.Timeseries.length ts > 100)
  | None -> Alcotest.fail "no series despite record_rates"

(* ------------------------------------------------------------------ *)
(* Protocol registry *)

let test_registry_lookup () =
  let names = Nf_sim.Protocols.names () in
  List.iter
    (fun n -> Alcotest.(check bool) ("registered: " ^ n) true (List.mem n names))
    [ "numfabric"; "numfabric-srpt"; "dgd"; "rcp"; "dctcp"; "pfabric" ];
  (match Nf_sim.Protocols.find "no-such-proto" with
  | None -> ()
  | Some _ -> Alcotest.fail "phantom protocol");
  Alcotest.check_raises "duplicate registration rejected"
    (Invalid_argument "Protocol.register: duplicate protocol \"dctcp\"")
    (fun () -> Nf_sim.Protocol.register (proto "dctcp"))

let test_every_protocol_completes () =
  (* Every registered transport must carry two finite flows across a
     shared 10 Gbps bottleneck to completion, delivering all their bytes
     (byte conservation at the flow and at the link). *)
  List.iter
    (fun p ->
      let name = Nf_sim.Protocol.name p in
      let sb = Builders.single_bottleneck ~n_senders:2 () in
      let net = Network.create ~topology:sb.Builders.sb_topo ~protocol:p () in
      let size = 300_000. in
      Array.iteri
        (fun i src ->
          let utility =
            if Nf_sim.Protocol.needs_utility p then
              Some (Utility.proportional_fair ())
            else None
          in
          Network.add_flow net
            (Network.flow ?utility ~size ~id:i ~src ~dst:sb.Builders.receiver ()))
        sb.Builders.senders;
      Network.run net ~until:0.05;
      Array.iteri
        (fun i _ ->
          (match Network.fct net i with
          | Some fct ->
            Alcotest.(check bool) (name ^ ": positive fct") true (fct > 0.)
          | None -> Alcotest.failf "%s: flow %d did not finish" name i);
          Alcotest.(check bool)
            (name ^ ": flow bytes conserved")
            true
            (Network.received_bytes net i >= size))
        sb.Builders.senders;
      Alcotest.(check bool)
        (name ^ ": link bytes conserved")
        true
        (Network.link_delivered_bytes net ~link:sb.Builders.bottleneck
        >= 2. *. size))
    Nf_sim.Protocols.builtins

(* Pinned seeded packet runs, one per registered protocol: a k=4 fat tree
   carrying 14 finite flows (half of them an incast onto one server), with
   sizes and start times drawn from a fixed seed. Each run pins the events
   dispatched, the delivered / dropped / ECN-marked packet counters and an
   MD5 of every flow's FCT and every link's delivered bytes printed at
   %.17g, so any change to the packet path's arithmetic or event order
   shows up as a moved pin. *)
let pinned_protocol_runs =
  [
    ("dctcp", (37407, 3590, 0, 929, "d7d4d49b80fb5cebd9ca075e8577db46"));
    ("dgd", (40457, 3590, 0, 0, "9f7d6bc987084350838479cef6ab3311"));
    ("numfabric", (38072, 3590, 0, 0, "d414e13bd7f2552bc5e12a0a31fab703"));
    ("numfabric-srpt", (38072, 3590, 0, 0, "d133dc6ec03d25061c77a013ac669253"));
    ("pfabric", (38935, 3664, 227, 0, "7574c01f600a28135db320badc917bc2"));
    ("rcp", (40462, 3590, 0, 0, "23f9a0740e2000bd012f00d879eb17a1"));
  ]

let pinned_run p =
  let module Metrics = Nf_util.Metrics in
  let counter name = Metrics.counter Metrics.global name in
  let delivered = counter "nf_sim_packets_delivered_total"
  and dropped = counter "nf_sim_packets_dropped_total"
  and marked = counter "nf_sim_ecn_marks_total" in
  let d0 = Metrics.counter_value delivered
  and x0 = Metrics.counter_value dropped
  and m0 = Metrics.counter_value marked in
  let ft = Builders.fat_tree ~k:4 () in
  let s = ft.Builders.ft_servers in
  let net = Network.create ~topology:ft.Builders.ft_topo ~protocol:p () in
  let rng = Nf_util.Rng.create ~seed:2016 in
  let n_flows = 14 in
  for id = 0 to n_flows - 1 do
    let dst = if id mod 2 = 0 then s.(15) else s.(Nf_util.Rng.int rng 15) in
    let src =
      let rec pick () =
        let c = s.(Nf_util.Rng.int rng 15) in
        if c = dst then pick () else c
      in
      pick ()
    in
    let size = float_of_int ((20 + Nf_util.Rng.int rng 180) * Packet.data_size) in
    let start = Nf_util.Rng.float rng 200e-6 in
    let utility =
      if Nf_sim.Protocol.needs_utility p then Some (Utility.proportional_fair ())
      else None
    in
    Network.add_flow net (Network.flow ?utility ~size ~start ~id ~src ~dst ())
  done;
  Network.run net ~until:0.02;
  let buf = Buffer.create 4096 in
  for id = 0 to n_flows - 1 do
    match Network.fct net id with
    | Some f -> Printf.bprintf buf "fct %d %.17g\n" id f
    | None -> Printf.bprintf buf "fct %d none\n" id
  done;
  let n_links = Nf_topo.Topology.n_links ft.Builders.ft_topo in
  for l = 0 to n_links - 1 do
    Printf.bprintf buf "link %d %.17g\n" l (Network.link_delivered_bytes net ~link:l)
  done;
  ( Nf_engine.Sim.events_processed (Network.sim net),
    Metrics.counter_value delivered - d0,
    Metrics.counter_value dropped - x0,
    Metrics.counter_value marked - m0,
    Digest.to_hex (Digest.string (Buffer.contents buf)) )

let test_pinned_protocol_runs () =
  let names = List.map fst pinned_protocol_runs in
  Alcotest.(check (list string)) "every registered protocol is pinned"
    (Nf_sim.Protocols.names ()) names;
  List.iter
    (fun (name, (events, delivered, dropped, marked, md5)) ->
      let e, d, x, m, h = pinned_run (proto name) in
      Alcotest.(check int) (name ^ ": events") events e;
      Alcotest.(check int) (name ^ ": delivered") delivered d;
      Alcotest.(check int) (name ^ ": dropped") dropped x;
      Alcotest.(check int) (name ^ ": ecn marks") marked m;
      Alcotest.(check string) (name ^ ": fct and link-bytes md5") md5 h)
    pinned_protocol_runs

let test_record_json_has_channels () =
  (* A monitored run's record must serialize every instrumentation
     channel: queue/price/drops (link monitor), rate (receiver sink) and
     fct (completion). *)
  let sb = Builders.single_bottleneck ~n_senders:1 () in
  let config = { Nf_sim.Config.default with Nf_sim.Config.record_rates = true } in
  let net =
    Network.create ~config ~topology:sb.Builders.sb_topo
      ~protocol:(proto "numfabric") ()
  in
  Network.monitor_links net ~links:[ sb.Builders.bottleneck ] ~every:50e-6;
  Network.add_flow net
    (Network.flow
       ~utility:(Utility.proportional_fair ())
       ~size:200_000. ~id:0 ~src:sb.Builders.senders.(0)
       ~dst:sb.Builders.receiver ());
  Network.run net ~until:0.01;
  let json = Nf_sim.Record.to_json (Network.record net) in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("json has " ^ key) true (contains ("\"" ^ key ^ "\"")))
    [ "queue"; "price"; "rate"; "drops"; "fct"; "channels" ]

let test_trace_flow_lifecycle () =
  (* A deterministic two-flow run against a kinds-filtered sink: the
     trace must open with both FlowStart events, contain the tail drops a
     3-packet buffer forces, close with both FlowDone events, and be
     time-ordered throughout. *)
  let module Trace = Nf_util.Trace in
  let tr =
    Trace.make ~capacity:4096
      ~kinds:[ Trace.FlowStart; Trace.Drop; Trace.FlowDone ] ()
  in
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let config = { Nf_sim.Config.default with Nf_sim.Config.buffer_bytes = 4_500 } in
  let net =
    Network.create ~config ~trace:tr ~topology:sb.Builders.sb_topo
      ~protocol:(proto "numfabric") ()
  in
  Array.iteri
    (fun i src ->
      Network.add_flow net
        (Network.flow
           ~utility:(Utility.proportional_fair ())
           ~size:200_000. ~id:i ~src ~dst:sb.Builders.receiver ()))
    sb.Builders.senders;
  Network.run net ~until:0.25;
  let evs = Trace.events tr in
  let kinds = List.map (fun e -> e.Trace.kind) evs in
  (match kinds with
  | Trace.FlowStart :: Trace.FlowStart :: _ -> ()
  | _ -> Alcotest.fail "trace must open with both FlowStart events");
  Alcotest.(check bool) "buffer overflow traced" true
    (List.mem Trace.Drop kinds);
  Alcotest.(check int) "drops match the link counter"
    (Network.total_drops net)
    (List.length (List.filter (fun k -> k = Trace.Drop) kinds));
  (match List.rev kinds with
  | Trace.FlowDone :: _ -> ()
  | _ -> Alcotest.fail "trace must close with a FlowDone event");
  List.iter
    (fun flow ->
      List.iter
        (fun kind ->
          Alcotest.(check int)
            (Printf.sprintf "one %s for flow %d" (Trace.kind_name kind) flow)
            1
            (List.length
               (List.filter
                  (fun e -> e.Trace.kind = kind && e.Trace.subject = flow)
                  evs)))
        [ Trace.FlowStart; Trace.FlowDone ])
    [ 0; 1 ];
  let rec ordered = function
    | a :: (b :: _ as rest) ->
      a.Trace.time <= b.Trace.time && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "events are time-ordered" true (ordered evs);
  (* FlowDone carries the fct as its value. *)
  List.iter
    (fun e ->
      if e.Trace.kind = Trace.FlowDone then
        match Network.fct net e.Trace.subject with
        | Some fct ->
          Alcotest.(check (float 1e-12)) "flow_done value is the fct" fct
            e.Trace.value
        | None -> Alcotest.fail "FlowDone traced for an unfinished flow")
    evs

let test_record_csv_header () =
  let r = Nf_sim.Record.create () in
  Nf_sim.Record.add r Nf_sim.Record.Queue ~subject:3 ~time:1e-3 1500.;
  Nf_sim.Record.complete r ~flow:0 ~at:2e-3 ~fct:2e-3;
  let csv = Nf_sim.Record.to_csv r in
  (match String.index_opt csv '\n' with
  | Some i ->
    Alcotest.(check string) "header row" "channel,subject,time,value"
      (String.sub csv 0 i)
  | None -> Alcotest.fail "csv has no rows");
  Alcotest.(check int) "header + one row per sample" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)))

let test_record_empty_json () =
  (* The .mli contract: every channel appears in the JSON, empty ones as
     []. *)
  let json = Nf_sim.Record.to_json (Nf_sim.Record.create ()) in
  Alcotest.(check string) "empty record shape"
    "{\"channels\": {\"queue\": [], \"price\": [], \"rate\": [], \"drops\": \
     [], \"fct\": [], \"metric\": []}}"
    json

let () =
  Alcotest.run "nf_sim"
    [
      ( "queue_disc",
        [
          quick "fifo order and tail drop" test_fifo_order_and_drop;
          quick "ecn marking threshold" test_ecn_marking;
          quick "stfq weighted service" test_stfq_weighted_service;
          quick "stfq control packets jump" test_stfq_control_packets_jump;
          quick "stfq per-flow order" test_stfq_per_flow_order;
          quick "pfabric priority and eviction" test_pfabric_priority;
          quick "pfabric same-flow order" test_pfabric_same_flow_in_order;
          quick "stfq ordering under weight change" test_stfq_weight_change_ordering;
          quick "fifo drop accounting" test_fifo_drop_accounting;
          quick "drops counter monotone" test_drops_counter_monotone;
          quick "dequeue_exn matches dequeue" test_dequeue_exn_matches_dequeue;
          quick "stfq flow-table growth" test_stfq_flow_table_growth;
        ] );
      ( "price_engine",
        [
          quick "xwi stamps and decays" test_xwi_engine_stamps;
          quick "dgd overload raises price" test_dgd_engine_overload;
          quick "rcp fair rate dynamics" test_rcp_engine;
        ] );
      ( "network",
        [
          quick "numfabric equal share" test_numfabric_single_bottleneck;
          quick "numfabric weighted share" test_numfabric_weighted;
          quick "numfabric parking-lot optimum" test_numfabric_parking_lot_optimum;
          quick "numfabric alpha=2" test_numfabric_alpha2_packet;
          quick "finite flow completes" test_flow_completion;
          quick "completion increments metric" test_completion_increments_metric;
          quick "stop releases bandwidth" test_stop_flow_releases_bandwidth;
          quick "dctcp shares the link" test_dctcp_shares_link;
          quick "rcp fair share" test_rcp_fair_share;
          quick "dgd converges roughly" test_dgd_converges_roughly;
          quick "pfabric preemption" test_pfabric_preemption;
          quick "conservation and paths" test_conservation_and_paths;
          quick "add_flow validation" test_add_flow_validation;
          quick "numfabric on a fat tree" test_numfabric_on_fat_tree;
          quick "rate series recording" test_rate_series_recording;
          quick "srpt weights preempt" test_numfabric_srpt_preempts;
          quick "link monitoring" test_link_monitoring;
          quick "weight quantization" test_weight_quantization_still_shares;
        ] );
      ( "registry",
        [
          quick "lookup and duplicate guard" test_registry_lookup;
          quick "every protocol completes a 2-flow run" test_every_protocol_completes;
          quick "pinned seeded run per protocol" test_pinned_protocol_runs;
          quick "record json has all channels" test_record_json_has_channels;
          quick "record csv header" test_record_csv_header;
          quick "record empty json shape" test_record_empty_json;
          quick "trace flow lifecycle" test_trace_flow_lifecycle;
        ] );
    ]
