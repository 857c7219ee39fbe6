(* Tests for nf_util: fheap, int ring, EWMA, RNG, stats, piecewise functions,
   time series. *)

module Ewma = Nf_util.Ewma
module Rng = Nf_util.Rng
module Stats = Nf_util.Stats
module Piecewise = Nf_util.Piecewise
module Timeseries = Nf_util.Timeseries
module Fcmp = Nf_util.Fcmp
module Approx = Nf_testkit.Approx
module Units = Nf_util.Units
module Trace = Nf_util.Trace
module Metrics = Nf_util.Metrics
module Profile = Nf_util.Profile

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(eps = 1e-9) what expected actual =
  if not (Approx.rel_eq ~rel:eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

(* ------------------------------------------------------------------ *)
(* Fheap (the SoA float-keyed heap under the event engine and STFQ) *)

module Fheap = Nf_util.Fheap

let pop h =
  let v = Fheap.top h in
  Fheap.drop h;
  v

let test_fheap_basic () =
  let h = Fheap.create ~capacity:2 () in
  Alcotest.(check bool) "empty" true (Fheap.is_empty h);
  Fheap.push h ~key:5. 500;
  Fheap.push h ~key:1. 100;
  Fheap.push h ~key:3. 300;
  Alcotest.(check int) "length" 3 (Fheap.length h);
  check_float "top key" 1. (Fheap.top_key h);
  Alcotest.(check int) "top" 100 (Fheap.top h);
  Alcotest.(check int) "pop1" 100 (pop h);
  Alcotest.(check int) "pop2" 300 (pop h);
  Alcotest.(check int) "pop3" 500 (pop h);
  Alcotest.(check bool) "empty again" true (Fheap.is_empty h);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Fheap.top: empty heap")
    (fun () -> ignore (pop h : int))

let test_fheap_fifo_ties () =
  let h = Fheap.create () in
  for i = 0 to 9 do
    Fheap.push h ~key:1. i
  done;
  for i = 0 to 9 do
    Alcotest.(check int) (Printf.sprintf "tie %d in FIFO order" i) i (pop h)
  done

let test_fheap_clear_and_growth () =
  let h = Fheap.create ~capacity:1 () in
  for i = 99 downto 0 do
    Fheap.push h ~key:(float_of_int i) i
  done;
  Alcotest.(check int) "grown length" 100 (Fheap.length h);
  for i = 0 to 99 do
    Alcotest.(check int) (Printf.sprintf "pop %d" i) i (pop h)
  done;
  Fheap.push h ~key:1. 7;
  Fheap.drop h;
  Alcotest.(check bool) "cleared" true (Fheap.is_empty h);
  Fheap.push h ~key:2. 9;
  Alcotest.(check int) "usable after clear" 9 (pop h)

(* The correctness contract of the event-engine swap: Fheap pops in
   exactly the order of the reference, the pushes sorted by (key, push
   seq) — keys drawn from 8 values so every list has exact-tie groups. *)
let prop_fheap_matches_reference =
  QCheck.Test.make ~name:"fheap pops in reference (key, seq) order" ~count:300
    QCheck.(list (int_bound 7))
    (fun keys ->
      let h = Fheap.create ~capacity:4 () in
      let pushed =
        List.mapi
          (fun i k ->
            let key = float_of_int k /. 4. in
            Fheap.push h ~key i;
            (key, i))
          keys
      in
      let reference =
        List.sort
          (fun (ka, sa) (kb, sb) ->
            match Float.compare ka kb with 0 -> Int.compare sa sb | c -> c)
          pushed
      in
      let ok = ref true in
      let rec drain = function
        | [] -> if not (Fheap.is_empty h) then ok := false
        | (key, seq) :: rest ->
          if Fheap.is_empty h then ok := false
          else if Fheap.top_key h <> key then ok := false
          else if pop h <> seq then ok := false
          else drain rest
      in
      drain reference;
      !ok)

(* ------------------------------------------------------------------ *)
(* Int_ring (the id FIFO under the simulator's wires and FIFO queues) *)

module Int_ring = Nf_util.Int_ring

let test_int_ring_empty () =
  let r = Int_ring.create () in
  Alcotest.(check int) "empty" 0 (Int_ring.length r);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Int_ring.pop: empty ring")
    (fun () -> ignore (Int_ring.pop r : int));
  Int_ring.push r 7;
  Alcotest.(check int) "pop" 7 (Int_ring.pop r);
  Alcotest.check_raises "pop on emptied" (Invalid_argument "Int_ring.pop: empty ring")
    (fun () -> ignore (Int_ring.pop r : int))

(* Any interleaving of pushes and pops returns what [Stdlib.Queue] does:
   runs of up to 40 pushes grow the ring past its initial 16 slots while
   the head has wrapped. *)
let prop_int_ring_matches_queue =
  QCheck.Test.make ~name:"int ring pops in Queue order" ~count:300
    QCheck.(list (pair (int_bound 40) (int_bound 40)))
    (fun steps ->
      let r = Int_ring.create () and q = Queue.create () in
      let next = ref 0 and ok = ref true in
      List.iter
        (fun (pushes, pops) ->
          for _ = 1 to pushes do
            Int_ring.push r !next;
            Queue.add !next q;
            incr next
          done;
          for _ = 1 to Int.min pops (Queue.length q) do
            if Int_ring.pop r <> Queue.pop q then ok := false
          done;
          if Int_ring.length r <> Queue.length q then ok := false)
        steps;
      !ok)

(* ------------------------------------------------------------------ *)
(* EWMA *)

let test_ewma_timed_convergence () =
  let f = Ewma.timed ~tau:1. in
  Ewma.timed_update f ~now:0. 0.;
  (* Step input of 1.0; after 5 tau the filter should be within 1%. *)
  for i = 1 to 500 do
    Ewma.timed_update f ~now:(float_of_int i *. 0.01) 1.
  done;
  let v = Ewma.timed_value_exn f in
  Alcotest.(check bool) "converged to step" true (v > 0.98 && v <= 1.0)

let test_ewma_timed_out_of_order () =
  let f = Ewma.timed ~tau:1. in
  Alcotest.(check bool) "unset before a sample" false (Ewma.timed_is_set f);
  Alcotest.(check (option (float 0.))) "no value" None (Ewma.timed_value f);
  Ewma.timed_update f ~now:10. 5.;
  Alcotest.(check bool) "set by the first sample" true (Ewma.timed_is_set f);
  Ewma.timed_update f ~now:3. 100.;
  (* dt clamped to 0 -> weight 0 -> unchanged *)
  check_float "out of order ignored" 5. (Ewma.timed_value_exn f);
  Alcotest.check_raises "value_exn on an unset filter"
    (Invalid_argument "Ewma.timed_value_exn: no samples yet") (fun () ->
      ignore (Ewma.timed_value_exn (Ewma.timed ~tau:1.) : float))

let test_ewma_rise_time () =
  check_close "rise time formula" (log 10. *. 80e-6) (Ewma.rise_time_90 ~tau:80e-6);
  (* Simulate the step response directly: with tau = 80us the output should
     cross 90% at ~184us. *)
  let f = Ewma.timed ~tau:80e-6 in
  Ewma.timed_update f ~now:0. 0.;
  let crossed = ref None in
  let dt = 1e-7 in
  let t = ref 0. in
  while !crossed = None && !t < 1e-3 do
    t := !t +. dt;
    Ewma.timed_update f ~now:!t 1.;
    if Ewma.timed_value_exn f >= 0.9 then crossed := Some !t
  done;
  match !crossed with
  | None -> Alcotest.fail "never crossed 90%"
  | Some t ->
    Alcotest.(check bool) "crossing near ln(10)*tau" true
      (Float.abs (t -. Ewma.rise_time_90 ~tau:80e-6) < 5e-6)

(* ------------------------------------------------------------------ *)
(* RNG *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a 1.) (Rng.float b 1.)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true (Rng.float a 1. <> Rng.float b 1.)

let test_rng_float_range () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.float r 3. in
    if x < 0. || x >= 3. then Alcotest.failf "float out of range: %g" x
  done

let test_rng_int_range () =
  let r = Rng.create ~seed:7 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Rng.int r 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 700 || c > 1300 then Alcotest.failf "bucket %d skewed: %d" i c)
    counts

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:9 in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:2.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 2" true (Float.abs (mean -. 2.) < 0.05)

let test_rng_permutation () =
  let r = Rng.create ~seed:11 in
  let p = Rng.permutation r 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true
    (Array.to_list sorted = List.init 100 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Stats.median xs);
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 5. (Stats.percentile xs 100.);
  check_float "p25" 2. (Stats.percentile xs 25.)

let test_stats_mean_stddev () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs)

let test_stats_boxplot () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let b = Stats.boxplot xs in
  check_float "p25" 25. b.Stats.p25;
  check_float "p50" 50. b.Stats.p50;
  check_float "p75" 75. b.Stats.p75;
  check_float "whisker lo" 0. b.Stats.whisker_lo;
  check_float "whisker hi" 100. b.Stats.whisker_hi

let test_stats_jain () =
  check_float "even allocation" 1. (Stats.jain_index [| 3.; 3.; 3. |]);
  check_float "one hog" 0.25 (Stats.jain_index [| 1.; 0.; 0.; 0. |]);
  check_float "all zero" 1. (Stats.jain_index [| 0.; 0. |]);
  Alcotest.(check bool) "intermediate" true
    (let j = Stats.jain_index [| 1.; 2.; 3. |] in
     j > 0.85 && j < 0.86)

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within sample range" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
              (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Stats.percentile arr p in
      let lo = Array.fold_left Float.min infinity arr in
      let hi = Array.fold_left Float.max neg_infinity arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Piecewise *)

let test_piecewise_eval () =
  let f = Piecewise.of_points [ (0., 0.); (1., 2.); (3., 2.); (4., 6.) ] in
  check_float "at breakpoint" 2. (Piecewise.eval f 1.);
  check_float "interior" 1. (Piecewise.eval f 0.5);
  check_float "flat region" 2. (Piecewise.eval f 2.);
  check_float "last segment" 4. (Piecewise.eval f 3.5);
  check_float "extension beyond" 10. (Piecewise.eval f 5.)

let test_piecewise_inverse () =
  let f = Piecewise.of_points [ (0., 0.); (2., 10.); (2.5, 15.) ] in
  check_float "inverse interior" 1. (Piecewise.inverse f 5.);
  check_float "inverse breakpoint" 2. (Piecewise.inverse f 10.);
  check_float "inverse extension" 3. (Piecewise.inverse f 20.)

let test_piecewise_invalid () =
  Alcotest.check_raises "x not increasing"
    (Invalid_argument "Piecewise.of_points: x must be strictly increasing")
    (fun () -> ignore (Piecewise.of_points [ (0., 0.); (0., 1.) ]));
  Alcotest.check_raises "y decreasing"
    (Invalid_argument "Piecewise.of_points: y must be non-decreasing")
    (fun () -> ignore (Piecewise.of_points [ (0., 1.); (1., 0.) ]))

let prop_piecewise_inverse_roundtrip =
  QCheck.Test.make ~name:"inverse roundtrips on increasing curves" ~count:200
    QCheck.(pair (list_of_size Gen.(2 -- 8) (float_bound_exclusive 10.))
              (float_bound_inclusive 1.))
    (fun (deltas, frac) ->
      (* Build a strictly increasing curve from positive deltas. *)
      let deltas = List.map (fun d -> d +. 0.01) deltas in
      let pts =
        List.fold_left
          (fun acc d ->
            match acc with
            | (x, y) :: _ -> (x +. d, y +. d) :: acc
            | [] -> assert false)
          [ (0., 0.) ] deltas
      in
      let f = Piecewise.of_points (List.rev pts) in
      let x = frac *. fst (List.hd pts) in
      let y = Piecewise.eval f x in
      Approx.rel_eq ~rel:1e-6 (Piecewise.eval f (Piecewise.inverse f y)) y)

(* ------------------------------------------------------------------ *)
(* Timeseries *)

let test_timeseries_basics () =
  let ts = Timeseries.create () in
  Alcotest.(check int) "empty" 0 (Timeseries.length ts);
  Timeseries.add ts ~time:0. 1.;
  Timeseries.add ts ~time:1. 2.;
  Timeseries.add ts ~time:2. 4.;
  Alcotest.(check int) "length" 3 (Timeseries.length ts);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "last" (Some (2., 4.))
    (Timeseries.last ts);
  Alcotest.(check (option (float 0.))) "value before start" None
    (Timeseries.value_at ts (-1.));
  Alcotest.(check (option (float 0.))) "sample and hold" (Some 2.)
    (Timeseries.value_at ts 1.5);
  Alcotest.(check (option (float 0.))) "after end" (Some 4.)
    (Timeseries.value_at ts 10.)

let test_timeseries_out_of_order () =
  let ts = Timeseries.create () in
  Timeseries.add ts ~time:1. 1.;
  Alcotest.check_raises "time ordered"
    (Invalid_argument "Timeseries.add: samples must be time-ordered")
    (fun () -> Timeseries.add ts ~time:0.5 2.)

let test_timeseries_resample () =
  let ts = Timeseries.create () in
  Timeseries.add ts ~time:0. 5.;
  Timeseries.add ts ~time:1. 6.;
  let grid = Timeseries.resample ts ~t0:0. ~t1:1.5 ~dt:0.5 in
  Alcotest.(check int) "grid points" 4 (List.length grid);
  match grid with
  | (_, v0) :: (_, v1) :: (_, v2) :: (_, v3) :: [] ->
    check_float "g0" 5. v0;
    check_float "g1" 5. v1;
    check_float "g2" 6. v2;
    check_float "g3" 6. v3
  | _ -> Alcotest.fail "unexpected grid shape"

(* ------------------------------------------------------------------ *)
(* Units & Fcmp *)

let test_units () =
  check_float "gbps" 1e10 (Units.gbps 10.);
  check_float "usec" 1.6e-5 (Units.usec 16.)

let test_fcmp () =
  Alcotest.(check bool) "within_fraction yes" true
    (Fcmp.within_fraction ~frac:0.1 ~actual:95. ~target:100.);
  Alcotest.(check bool) "within_fraction no" false
    (Fcmp.within_fraction ~frac:0.1 ~actual:80. ~target:100.);
  check_float "clamp" 1. (Fcmp.clamp ~lo:0. ~hi:1. 3.);
  Alcotest.(check bool) "is_finite nan" false (Fcmp.is_finite Float.nan);
  (* The comparison-only pair is Float.max/Float.min bit for bit on every
     pair of special values (signed zeros, infinities, subnormals), and
     NaN wherever they are NaN. *)
  let values =
    [ 0.; -0.; 1.; -1.; infinity; neg_infinity; nan; -.nan; 4.9e-324;
      -4.9e-324; Float.max_float; -.Float.max_float ]
  in
  let check_bits what expected actual =
    if not (Float.is_nan expected && Float.is_nan actual) then
      Alcotest.(check int64) what (Int64.bits_of_float expected)
        (Int64.bits_of_float actual)
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          check_bits (Printf.sprintf "fmax %h %h" x y) (Float.max x y)
            (Fcmp.fmax x y);
          check_bits (Printf.sprintf "fmin %h %h" x y) (Float.min x y)
            (Fcmp.fmin x y))
        values)
    values

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_ring () =
  let tr = Trace.make ~capacity:4 () in
  for i = 1 to 6 do
    Trace.emit tr Trace.Enqueue ~subject:i ~time:(float_of_int i)
      (float_of_int (100 * i))
  done;
  Alcotest.(check int) "accepted all six" 6 (Trace.emitted tr);
  let evs = Trace.events tr in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length evs);
  Alcotest.(check (list int))
    "oldest first, oldest two evicted" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Trace.subject) evs)

(* The sink filters kinds; a subject is picked out of the captured
   events. *)
let test_trace_filters () =
  let tr = Trace.make ~kinds:[ Trace.Drop; Trace.FlowDone ] () in
  Alcotest.(check bool) "on Drop" true (Trace.on tr Trace.Drop);
  Alcotest.(check bool) "off Enqueue" false (Trace.on tr Trace.Enqueue);
  Trace.emit tr Trace.Drop ~subject:7 ~time:1. 1500.;
  Trace.emit tr Trace.Drop ~subject:8 ~time:2. 1500.;
  (* wrong kind *)
  Trace.emit tr Trace.Enqueue ~subject:7 ~time:3. 1500.;
  Trace.emit tr Trace.FlowDone ~subject:7 ~time:4. 0.01;
  Alcotest.(check int) "only matching kinds pass" 3 (Trace.emitted tr);
  let subject_7 = List.filter (fun e -> e.Trace.subject = 7) (Trace.events tr) in
  Alcotest.(check (list string))
    "subject 7's kinds in order" [ "drop"; "flow_done" ]
    (List.map (fun e -> Trace.kind_name e.Trace.kind) subject_7)

let test_trace_null_disabled () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "null sink off for %s" (Trace.kind_name k))
        false (Trace.on Trace.null k))
    Trace.
      [
        Enqueue; Dequeue; Drop; EcnMark; PktSend; PktRecv; RateUpdate;
        PriceUpdate; FlowStart; FlowDone; XwiIter; XwiResidual; XwiNonconverged;
      ];
  Trace.emit Trace.null Trace.Drop ~subject:0 ~time:0. 0.;
  Alcotest.(check int) "null sink accepts nothing" 0 (Trace.emitted Trace.null)

(* The zero-cost-when-disabled contract: the guarded hot-path pattern
   [if Trace.on tr k then Trace.emit ...] must allocate nothing when the
   sink rejects the kind. The guard itself is an int mask test; only the
   skipped [emit] call would box its float arguments. *)
let test_trace_disabled_no_alloc () =
  let tr = Trace.make ~capacity:16 ~kinds:[ Trace.FlowDone ] () in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    (* The float arguments sit inside the guarded branch, so a rejected
       kind never evaluates (or boxes) them — same shape as the hot paths. *)
    if Trace.on tr Trace.Drop then
      Trace.emit tr Trace.Drop ~subject:i ~time:(float_of_int i) 1500.
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check int) "nothing emitted" 0 (Trace.emitted tr);
  if allocated > 256. then
    Alcotest.failf "disabled trace path allocated %.0f minor words" allocated

let test_trace_jsonl_file () =
  let path = Filename.temp_file "nf_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* capacity 2 forces mid-run batch flushes *)
      let tr = Trace.make ~capacity:2 ~path () in
      Trace.emit tr Trace.FlowStart ~subject:0 ~time:0. 600_000.;
      Trace.emit tr Trace.Drop ~subject:3 ~time:1e-3 ~aux:1. 1500.;
      Trace.emit tr Trace.FlowDone ~subject:0 ~time:2e-3 0.002;
      Trace.close tr;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "three JSONL lines" 3 (List.length lines);
      Alcotest.(check string)
        "first line" "{\"time\":0,\"kind\":\"flow_start\",\"subject\":0,\"value\":600000}"
        (List.nth lines 0);
      Alcotest.(check string)
        "aux present when set"
        "{\"time\":0.001,\"kind\":\"drop\",\"subject\":3,\"value\":1500,\"aux\":1}"
        (List.nth lines 1);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a JSON object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines)

let test_trace_default_sink () =
  Alcotest.(check bool) "default starts null" true (Trace.default () == Trace.null);
  let tr = Trace.make ~capacity:8 () in
  Trace.set_default tr;
  Fun.protect
    ~finally:(fun () -> Trace.set_default Trace.null)
    (fun () ->
      Trace.emit (Trace.default ()) Trace.XwiIter ~subject:0 ~time:1. 1.;
      Alcotest.(check int) "default sink receives" 1 (Trace.emitted tr))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counter_gauge () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~help:"packets" "test_packets_total" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.add: negative increment") (fun () ->
      Metrics.add c (-1));
  let c' = Metrics.counter r "test_packets_total" in
  Metrics.incr c';
  Alcotest.(check int) "re-registration is the same counter" 6
    (Metrics.counter_value c);
  let g = Metrics.gauge r "test_depth" in
  Metrics.set_gauge g 2.5;
  Metrics.max_gauge g 1.;
  Alcotest.(check (float 0.)) "max_gauge keeps larger" 2.5 (Metrics.gauge_value g);
  Metrics.max_gauge g 4.;
  Alcotest.(check (float 0.)) "max_gauge takes larger" 4. (Metrics.gauge_value g);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Metrics: \"test_depth\" is already registered as a gauge, not a counter")
    (fun () -> ignore (Metrics.counter r "test_depth" : Metrics.counter))

let test_metrics_histogram () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~buckets:[ 1.; 10.; 100. ] "test_latency" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 50.; 500.; 7. ];
  Alcotest.(check int) "count" 5 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 562.5 (Metrics.histogram_sum h)

(* A parallel sweep updates one registry from several domains: no update
   may be lost. *)
let test_metrics_parallel_updates () =
  let r = Metrics.create () in
  let c = Metrics.counter r "test_parallel_total" in
  let h = Metrics.histogram r ~buckets:[ 1. ] "test_parallel" in
  let work () =
    for _ = 1 to 100_000 do
      Metrics.incr c;
      Metrics.observe h 1.
    done
  in
  let other = Domain.spawn work in
  work ();
  Domain.join other;
  Alcotest.(check int) "counter" 200_000 (Metrics.counter_value c);
  Alcotest.(check int) "histogram count" 200_000 (Metrics.histogram_count h);
  Alcotest.(check (float 0.)) "histogram sum" 200_000. (Metrics.histogram_sum h)

let test_metrics_prometheus () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~help:"demo counter" "demo_total" in
  Metrics.add c 7;
  let h = Metrics.histogram r ~buckets:[ 1.; 10. ] "demo_hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 50. ];
  let page = Metrics.to_prometheus r in
  let expect =
    "# HELP demo_total demo counter\n# TYPE demo_total counter\ndemo_total 7\n\
     # TYPE demo_hist histogram\n\
     demo_hist_bucket{le=\"1\"} 1\ndemo_hist_bucket{le=\"10\"} 2\n\
     demo_hist_bucket{le=\"+Inf\"} 3\ndemo_hist_sum 55.5\ndemo_hist_count 3\n"
  in
  Alcotest.(check string) "exposition page" expect page

let test_metrics_json_and_fold () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a_total" in
  Metrics.add c 2;
  let g = Metrics.gauge r "b_depth" in
  Metrics.set_gauge g 1.5;
  let json = Metrics.to_json r in
  Alcotest.(check string) "json"
    "{\"metrics\":[{\"name\":\"a_total\",\"type\":\"counter\",\"value\":2},\
     {\"name\":\"b_depth\",\"type\":\"gauge\",\"value\":1.5}]}"
    json;
  let folded =
    Metrics.fold_values r ~init:[] ~f:(fun acc ~id ~name v ->
        (id, name, v) :: acc)
  in
  Alcotest.(check int) "fold visits all" 2 (List.length folded);
  let ids = List.rev_map (fun (id, _, _) -> id) folded in
  Alcotest.(check (list int)) "ids are registration order" [ 0; 1 ] ids

(* ------------------------------------------------------------------ *)
(* Profile *)

let test_profile_accounting () =
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    (fun () ->
      let r = Profile.time "work" (fun () -> 41 + 1) in
      Alcotest.(check int) "thunk result returned" 42 r;
      Profile.record_cat (Profile.intern "work") 0.5;
      Profile.record_cat (Profile.intern "other") 0.1;
      match Profile.categories () with
      | (cat1, calls1, sec1) :: (cat2, _, _) :: [] ->
        Alcotest.(check string) "most expensive first" "work" cat1;
        Alcotest.(check int) "two accounted calls" 2 calls1;
        Alcotest.(check bool) "seconds accumulated" true (sec1 >= 0.5);
        Alcotest.(check string) "second category" "other" cat2
      | rows ->
        Alcotest.failf "expected 2 categories, got %d" (List.length rows))

let test_profile_disabled_is_passthrough () =
  Profile.reset ();
  Profile.set_enabled false;
  let r = Profile.time "ignored" (fun () -> "ok") in
  Alcotest.(check string) "passthrough result" "ok" r;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Profile.categories ()))

(* ------------------------------------------------------------------ *)
(* Gcstats: per-category allocation accounting *)

module Gcstats = Nf_util.Gcstats

let test_gcstats_record_and_categories () =
  Gcstats.reset ();
  Gcstats.record 3 100.;
  Gcstats.record 3 50.;
  Gcstats.record 7 600.;
  (match Gcstats.categories () with
  | [ (c1, calls1, b1); (c2, calls2, b2) ] ->
      Alcotest.(check int) "most-allocating first" 7 c1;
      Alcotest.(check int) "one call" 1 calls1;
      Alcotest.(check (float 0.)) "bytes" 600. b1;
      Alcotest.(check int) "second category" 3 c2;
      Alcotest.(check int) "two calls accumulated" 2 calls2;
      Alcotest.(check (float 0.)) "bytes accumulated" 150. b2
  | rows -> Alcotest.failf "expected 2 categories, got %d" (List.length rows));
  Gcstats.reset ();
  Alcotest.(check int) "reset clears" 0 (List.length (Gcstats.categories ()))

let test_gcstats_publish_idempotent () =
  let r = Metrics.create () in
  Gcstats.publish ~registry:r ();
  let minor = Metrics.counter r "nf_gc_minor_collections_total" in
  let allocated = Metrics.counter r "nf_gc_allocated_bytes_total" in
  let first = Metrics.counter_value allocated in
  Alcotest.(check bool) "allocated bytes positive" true (first > 0);
  Alcotest.(check bool) "minor collections non-negative" true
    (Metrics.counter_value minor >= 0);
  ignore (Sys.opaque_identity (Array.make 1024 0.) : float array);
  Gcstats.publish ~registry:r ();
  (* Counters are raised to process-lifetime totals: republishing must
     keep them monotone, never double-count. *)
  let second = Metrics.counter_value allocated in
  Alcotest.(check bool) "monotone across publishes" true (second >= first);
  Alcotest.(check bool) "heap gauge present and positive" true
    (Metrics.gauge_value (Metrics.gauge r "nf_gc_heap_bytes") > 0.)

let test_profile_time_feeds_gcstats () =
  Profile.reset ();
  Gcstats.reset ();
  Profile.set_enabled true;
  Gcstats.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Gcstats.set_enabled false;
      Profile.set_enabled false;
      Gcstats.reset ();
      Profile.reset ())
    (fun () ->
      let sink = ref [||] in
      let r =
        Profile.time "gcstats_probe" (fun () ->
            sink := Sys.opaque_identity (Array.make 4096 0.);
            17)
      in
      Alcotest.(check int) "thunk result returned" 17 r;
      let id = Profile.intern "gcstats_probe" in
      match
        List.find_opt (fun (c, _, _) -> c = id) (Gcstats.categories ())
      with
      | Some (_, calls, bytes) ->
          Alcotest.(check int) "one call recorded" 1 calls;
          Alcotest.(check bool) "allocation attributed to category" true
            (bytes >= 4096. *. 8.)
      | None -> Alcotest.fail "Profile.time did not record into Gcstats")

let test_metrics_histogram_float_bounds () =
  (* Non-representable bucket bounds must label with the exact stored
     float ([%.17g]), not a rounded [%g], so the le labels round-trip to
     the bound the histogram actually cuts on. *)
  let r = Metrics.create () in
  let h = Metrics.histogram r ~buckets:[ 0.1; 2.5 ] "cutover" in
  List.iter (Metrics.observe h) [ 0.05; 1.; 7. ];
  let page = Metrics.to_prometheus r in
  let expect =
    "# TYPE cutover histogram\n\
     cutover_bucket{le=\"0.10000000000000001\"} 1\n\
     cutover_bucket{le=\"2.5\"} 2\n\
     cutover_bucket{le=\"+Inf\"} 3\n\
     cutover_sum 8.0500000000000007\ncutover_count 3\n"
  in
  Alcotest.(check string) "exact float bound labels" expect page

let test_metrics_help_escaping () =
  let r = Metrics.create () in
  let c =
    Metrics.counter r ~help:"path C:\\tmp\nsecond line" "escape_total"
  in
  Metrics.incr c;
  let page = Metrics.to_prometheus r in
  let expect =
    "# HELP escape_total path C:\\\\tmp\\nsecond line\n\
     # TYPE escape_total counter\nescape_total 1\n"
  in
  Alcotest.(check string) "backslash and newline escaped" expect page;
  (* Each metric still renders on its own lines: one HELP, one TYPE, one
     sample — the raw newline must not have split the HELP line. *)
  Alcotest.(check int) "exposition stays 3 lines" 3
    (List.length
       (List.filter (fun s -> s <> "") (String.split_on_char '\n' page)))

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nf_util"
    [
      ( "fheap",
        [
          quick "basic order" test_fheap_basic;
          quick "FIFO on equal keys" test_fheap_fifo_ties;
          quick "clear and growth" test_fheap_clear_and_growth;
          qcheck prop_fheap_matches_reference;
        ] );
      ( "int_ring",
        [
          quick "empty ring" test_int_ring_empty;
          qcheck prop_int_ring_matches_queue;
        ] );
      ( "ewma",
        [
          quick "timed converges to step" test_ewma_timed_convergence;
          quick "out-of-order samples ignored" test_ewma_timed_out_of_order;
          quick "90% rise time" test_ewma_rise_time;
        ] );
      ( "rng",
        [
          quick "deterministic" test_rng_deterministic;
          quick "seeds differ" test_rng_seeds_differ;
          quick "float range" test_rng_float_range;
          quick "int uniformity" test_rng_int_range;
          quick "exponential mean" test_rng_exponential_mean;
          quick "permutation" test_rng_permutation;
        ] );
      ( "stats",
        [
          quick "percentiles" test_stats_percentile;
          quick "mean/stddev" test_stats_mean_stddev;
          quick "boxplot" test_stats_boxplot;
          quick "jain index" test_stats_jain;
          qcheck prop_stats_percentile_bounds;
        ] );
      ( "piecewise",
        [
          quick "eval" test_piecewise_eval;
          quick "inverse" test_piecewise_inverse;
          quick "validation" test_piecewise_invalid;
          qcheck prop_piecewise_inverse_roundtrip;
        ] );
      ( "timeseries",
        [
          quick "basics" test_timeseries_basics;
          quick "ordering enforced" test_timeseries_out_of_order;
          quick "resample" test_timeseries_resample;
        ] );
      ("units", [ quick "conversions" test_units; quick "fcmp" test_fcmp ]);
      ( "trace",
        [
          quick "ring keeps newest" test_trace_ring;
          quick "kind and subject filters" test_trace_filters;
          quick "null sink disabled" test_trace_null_disabled;
          quick "disabled path allocates nothing" test_trace_disabled_no_alloc;
          quick "jsonl file sink" test_trace_jsonl_file;
          quick "default sink" test_trace_default_sink;
        ] );
      ( "metrics",
        [
          quick "counter and gauge" test_metrics_counter_gauge;
          quick "histogram" test_metrics_histogram;
          quick "exact under parallel updates" test_metrics_parallel_updates;
          quick "prometheus exposition" test_metrics_prometheus;
          quick "exact float bucket labels" test_metrics_histogram_float_bounds;
          quick "help line escaping" test_metrics_help_escaping;
          quick "json and fold" test_metrics_json_and_fold;
        ] );
      ( "profile",
        [
          quick "accounting" test_profile_accounting;
          quick "disabled passthrough" test_profile_disabled_is_passthrough;
          quick "feeds gcstats when enabled" test_profile_time_feeds_gcstats;
        ] );
      ( "gcstats",
        [
          quick "record and categories" test_gcstats_record_and_categories;
          quick "publish idempotent" test_gcstats_publish_idempotent;
        ] );
    ]
