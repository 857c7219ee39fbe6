(* Tests for nf_util: heap, EWMA, RNG, stats, piecewise functions,
   time series. *)

module Heap = Nf_util.Heap
module Ewma = Nf_util.Ewma
module Rng = Nf_util.Rng
module Stats = Nf_util.Stats
module Piecewise = Nf_util.Piecewise
module Timeseries = Nf_util.Timeseries
module Fcmp = Nf_util.Fcmp
module Units = Nf_util.Units
module Trace = Nf_util.Trace
module Metrics = Nf_util.Metrics
module Profile = Nf_util.Profile

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(eps = 1e-9) what expected actual =
  if not (Fcmp.rel_eq ~rel:eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop1" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop2" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "pop3" (Some 5) (Heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let test_heap_pop_exn_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h : int))

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Heap.push h 42;
  Alcotest.(check (option int)) "usable after clear" (Some 42) (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap sorts like List.sort" ~count:300
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap pop is monotone under interleaving" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let popped = ref [] in
      List.iter
        (fun (is_push, v) ->
          if is_push then Heap.push h v
          else match Heap.pop h with
            | Some x -> popped := x :: !popped
            | None -> ())
        ops;
      (* Drain the rest; within any run after pushes stop, pops are sorted. *)
      let rec drain () =
        match Heap.pop h with
        | Some x ->
          popped := x :: !popped;
          drain ()
        | None -> ()
      in
      let before_drain = List.length !popped in
      drain ();
      let drained = List.filteri (fun i _ -> i < List.length !popped - before_drain)
          (List.rev !popped) in
      ignore drained;
      (* The final drain must come out sorted. *)
      let tail =
        List.filteri (fun i _ -> i >= before_drain) (List.rev !popped)
      in
      tail = List.sort compare tail)

(* ------------------------------------------------------------------ *)
(* Fheap (the SoA float-keyed heap under the event engine and STFQ) *)

module Fheap = Nf_util.Fheap

let test_fheap_basic () =
  let h = Fheap.create ~capacity:2 ~dummy:(-1) () in
  Alcotest.(check bool) "empty" true (Fheap.is_empty h);
  Fheap.push h ~key:5. ~aux:50 500;
  Fheap.push h ~key:1. ~aux:10 100;
  Fheap.push h ~key:3. ~aux:30 300;
  Alcotest.(check int) "length" 3 (Fheap.length h);
  check_float "top key" 1. (Fheap.top_key h);
  Alcotest.(check int) "top aux" 10 (Fheap.top_aux h);
  Alcotest.(check int) "top" 100 (Fheap.top h);
  Alcotest.(check int) "pop1" 100 (Fheap.pop h);
  Alcotest.(check int) "pop2" 300 (Fheap.pop h);
  Alcotest.(check int) "pop3" 500 (Fheap.pop h);
  Alcotest.(check bool) "empty again" true (Fheap.is_empty h);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Fheap.top: empty heap")
    (fun () -> ignore (Fheap.pop h : int))

let test_fheap_fifo_ties () =
  let h = Fheap.create ~dummy:(-1) () in
  for i = 0 to 9 do
    Fheap.push h ~key:1. ~aux:i i
  done;
  for i = 0 to 9 do
    Alcotest.(check int) (Printf.sprintf "tie %d in FIFO order" i) i (Fheap.pop h)
  done

let test_fheap_clear_and_growth () =
  let h = Fheap.create ~capacity:1 ~dummy:0 () in
  for i = 99 downto 0 do
    Fheap.push h ~key:(float_of_int i) ~aux:i i
  done;
  Alcotest.(check int) "grown length" 100 (Fheap.length h);
  for i = 0 to 99 do
    Alcotest.(check int) (Printf.sprintf "pop %d" i) i (Fheap.pop h)
  done;
  Fheap.push h ~key:1. ~aux:0 7;
  Fheap.clear h;
  Alcotest.(check bool) "cleared" true (Fheap.is_empty h);
  Fheap.push h ~key:2. ~aux:0 9;
  Alcotest.(check int) "usable after clear" 9 (Fheap.pop h)

(* The correctness contract of the event-engine swap: Fheap pops in
   exactly the order of the reference heap ordered by (key, push seq) —
   keys drawn from 8 values so every list has exact-tie groups. *)
let prop_fheap_matches_reference =
  QCheck.Test.make ~name:"fheap pops in reference (key, seq) order" ~count:300
    QCheck.(list (int_bound 7))
    (fun keys ->
      let h = Fheap.create ~capacity:4 ~dummy:(-1) () in
      let ref_heap =
        Heap.create ~cmp:(fun (ka, sa) (kb, sb) ->
            match compare (ka : float) kb with 0 -> compare sa sb | c -> c)
      in
      List.iteri
        (fun i k ->
          let key = float_of_int k /. 4. in
          Fheap.push h ~key ~aux:k i;
          Heap.push ref_heap (key, i))
        keys;
      let ok = ref true in
      let rec drain () =
        match Heap.pop ref_heap with
        | None -> if not (Fheap.is_empty h) then ok := false
        | Some (key, seq) ->
          if Fheap.is_empty h then ok := false
          else if Fheap.top_key h <> key then ok := false
          else if Fheap.pop h <> seq then ok := false
          else drain ()
      in
      drain ();
      !ok)

(* ------------------------------------------------------------------ *)
(* EWMA *)

let test_ewma_gain () =
  let f = Ewma.gain ~g:0.5 in
  Alcotest.(check (option (float 0.))) "unset" None (Ewma.gain_value f);
  Ewma.gain_update f 10.;
  check_float "first sample initializes" 10. (Ewma.gain_value_exn f);
  Ewma.gain_update f 20.;
  check_float "blend" 15. (Ewma.gain_value_exn f)

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
  Ewma.timed_reset f;
  Alcotest.(check bool) "unset by reset" false (Ewma.timed_is_set f);
  Alcotest.check_raises "value_exn on an unset filter"
    (Invalid_argument "Ewma.timed_value_exn: no samples yet") (fun () ->
      ignore (Ewma.timed_value_exn f : float))

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

let test_ewma_reset () =
  let f = Ewma.timed ~tau:1. in
  Ewma.timed_update f ~now:0. 7.;
  Ewma.timed_reset f;
  Alcotest.(check (option (float 0.))) "reset" None (Ewma.timed_value f)

(* ------------------------------------------------------------------ *)
(* RNG *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

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

let test_rng_split_independent () =
  let r = Rng.create ~seed:3 in
  let a = Rng.split r in
  let b = Rng.split r in
  Alcotest.(check bool) "split streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_permutation () =
  let r = Rng.create ~seed:11 in
  let p = Rng.permutation r 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true
    (Array.to_list sorted = List.init 100 (fun i -> i))

let test_rng_derangement () =
  let r = Rng.create ~seed:13 in
  for _ = 1 to 50 do
    let p = Rng.derangement_pairing r 8 in
    Array.iteri
      (fun i v -> if i = v then Alcotest.fail "fixed point in derangement")
      p
  done

let prop_rng_copy_replays =
  QCheck.Test.make ~name:"rng copy replays the stream" ~count:50
    QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      ignore (Rng.bits64 r);
      let c = Rng.copy r in
      Rng.bits64 r = Rng.bits64 c)

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
  check_float "mean" 5. (Stats.mean xs);
  check_float "stddev" 2. (Stats.stddev xs)

let test_stats_boxplot () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let b = Stats.boxplot xs in
  check_float "p25" 25. b.Stats.p25;
  check_float "p50" 50. b.Stats.p50;
  check_float "p75" 75. b.Stats.p75;
  check_float "whisker lo" 0. b.Stats.whisker_lo;
  check_float "whisker hi" 100. b.Stats.whisker_hi

let test_stats_cdf () =
  let xs = [| 1.; 1.; 2.; 3. |] in
  let c = Stats.cdf xs in
  Alcotest.(check int) "distinct points" 3 (List.length c);
  check_float "P(X<=1)" 0.5 (Stats.cdf_at c 1.);
  check_float "P(X<=2.5)" 0.75 (Stats.cdf_at c 2.5);
  check_float "P(X<=0)" 0. (Stats.cdf_at c 0.);
  check_float "P(X<=99)" 1. (Stats.cdf_at c 99.)

let test_stats_jain () =
  check_float "even allocation" 1. (Stats.jain_index [| 3.; 3.; 3. |]);
  check_float "one hog" 0.25 (Stats.jain_index [| 1.; 0.; 0.; 0. |]);
  check_float "all zero" 1. (Stats.jain_index [| 0.; 0. |]);
  Alcotest.(check bool) "intermediate" true
    (let j = Stats.jain_index [| 1.; 2.; 3. |] in
     j > 0.85 && j < 0.86)

let test_stats_online () =
  let o = Stats.Online.create () in
  List.iter (Stats.Online.add o) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Stats.Online.count o);
  check_float "mean" 2.5 (Stats.Online.mean o);
  check_float "min" 1. (Stats.Online.min o);
  check_float "max" 4. (Stats.Online.max o);
  check_float "variance" 1.25 (Stats.Online.variance o)

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

let prop_online_matches_batch =
  QCheck.Test.make ~name:"online mean matches batch mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) (float_bound_exclusive 100.))
    (fun xs ->
      let o = Stats.Online.create () in
      List.iter (Stats.Online.add o) xs;
      Fcmp.rel_eq ~rel:1e-9 (Stats.Online.mean o) (Stats.mean (Array.of_list xs)))

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

let test_piecewise_integral_constant () =
  (* f(x) = 2 on [0, 4]: integral of 2^-1 over [0, 3] = 1.5 *)
  let f = Piecewise.of_points [ (0., 2.); (4., 2.) ] in
  check_close "constant alpha=1" 1.5 (Piecewise.integral_pow f ~alpha:1. 3.)

let test_piecewise_integral_linear () =
  (* f(x) = x on [0,10]; integral x^-0.5 dx over [1, 4] = 2(2 - 1) = 2 *)
  let f = Piecewise.of_points [ (0., 0.); (10., 10.) ] in
  check_close "linear alpha=0.5" 2.
    (Piecewise.integral_pow_between f ~alpha:0.5 ~lo:1. ~hi:4.);
  (* alpha = 1: integral 1/x over [1, e] = 1 *)
  check_close "linear alpha=1" 1.
    (Piecewise.integral_pow_between f ~alpha:1. ~lo:1. ~hi:(exp 1.))

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
      let x = frac *. Piecewise.max_x f in
      let y = Piecewise.eval f x in
      Fcmp.rel_eq ~rel:1e-6 (Piecewise.eval f (Piecewise.inverse f y)) y)

let prop_piecewise_integral_matches_quadrature =
  QCheck.Test.make ~name:"closed-form integral matches numeric quadrature"
    ~count:100
    QCheck.(pair (float_range 0.25 4.) small_int)
    (fun (alpha, seed) ->
      let rng = Rng.create ~seed in
      (* random increasing positive curve *)
      let pts = ref [ (0., Rng.uniform rng ~lo:0.5 ~hi:2.) ] in
      for _ = 1 to 4 do
        match !pts with
        | (x, y) :: _ ->
          pts :=
            ( x +. Rng.uniform rng ~lo:0.5 ~hi:2.,
              y +. Rng.uniform rng ~lo:0. ~hi:2. )
            :: !pts
        | [] -> assert false
      done;
      let f = Piecewise.of_points (List.rev !pts) in
      let lo = 0.2 and hi = Piecewise.max_x f -. 0.1 in
      let exact = Piecewise.integral_pow_between f ~alpha ~lo ~hi in
      (* midpoint rule, 4000 slices *)
      let n = 4000 in
      let h = (hi -. lo) /. float_of_int n in
      let acc = ref 0. in
      for i = 0 to n - 1 do
        let x = lo +. ((float_of_int i +. 0.5) *. h) in
        acc := !acc +. (Piecewise.eval f x ** -.alpha *. h)
      done;
      Fcmp.rel_eq ~rel:1e-3 exact !acc)

let prop_piecewise_integral_additive =
  QCheck.Test.make ~name:"integral is additive over ranges" ~count:200
    QCheck.(triple (float_range 0.5 2.) (float_range 0.1 4.) (float_range 0.1 4.))
    (fun (alpha, a, b) ->
      let f = Piecewise.of_points [ (0., 1.); (5., 6.) ] in
      let lo = Float.min a b and hi = Float.max a b in
      let mid = 0.5 *. (lo +. hi) in
      let whole = Piecewise.integral_pow_between f ~alpha ~lo ~hi in
      let parts =
        Piecewise.integral_pow_between f ~alpha ~lo ~hi:mid
        +. Piecewise.integral_pow_between f ~alpha ~lo:mid ~hi
      in
      Fcmp.rel_eq ~rel:1e-9 whole parts)

(* ------------------------------------------------------------------ *)
(* Timeseries *)

let test_timeseries_basics () =
  let ts = Timeseries.create ~name:"x" () in
  Alcotest.(check bool) "empty" true (Timeseries.is_empty ts);
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

let test_timeseries_mean_over () =
  let ts = Timeseries.create () in
  Timeseries.add ts ~time:0. 1.;
  Timeseries.add ts ~time:1. 3.;
  (* signal: 1 on [0,1), 3 on [1,2): mean over [0,2] = 2 *)
  (match Timeseries.mean_over ts ~t0:0. ~t1:2. with
  | Some m -> check_float "time-weighted mean" 2. m
  | None -> Alcotest.fail "expected a mean");
  Alcotest.(check (option (float 0.))) "before first sample" None
    (Timeseries.mean_over ts ~t0:(-2.) ~t1:(-1.))

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

let test_timeseries_smooth () =
  let ts = Timeseries.create () in
  for i = 0 to 100 do
    Timeseries.add ts ~time:(float_of_int i *. 0.1) 10.
  done;
  let sm = Timeseries.smooth ts ~tau:0.2 in
  match Timeseries.last sm with
  | Some (_, v) -> check_float "smoothing a constant is identity" 10. v
  | None -> Alcotest.fail "no samples"

(* ------------------------------------------------------------------ *)
(* Units & Fcmp *)

let test_units () =
  check_float "gbps" 1e10 (Units.gbps 10.);
  check_float "usec" 1.6e-5 (Units.usec 16.);
  check_float "bytes" 12e3 (Units.kb 12.);
  check_close "transmission time" 1.2e-6
    (Units.transmission_time ~bytes:1500. ~rate_bps:1e10)

let test_fcmp () =
  Alcotest.(check bool) "approx_eq" true (Fcmp.approx_eq 1. (1. +. 1e-12));
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

let test_trace_filters () =
  let tr = Trace.make ~kinds:[ Trace.Drop; Trace.FlowDone ] ~subjects:[ 7 ] () in
  Alcotest.(check bool) "on Drop" true (Trace.on tr Trace.Drop);
  Alcotest.(check bool) "off Enqueue" false (Trace.on tr Trace.Enqueue);
  Trace.emit tr Trace.Drop ~subject:7 ~time:1. 1500.;
  Trace.emit tr Trace.Drop ~subject:8 ~time:2. 1500.;
  (* wrong subject *)
  Trace.emit tr Trace.Enqueue ~subject:7 ~time:3. 1500.;
  (* wrong kind *)
  Trace.emit tr Trace.FlowDone ~subject:7 ~time:4. 0.01;
  Alcotest.(check int) "only matching events pass" 2 (Trace.emitted tr);
  Alcotest.(check (list string))
    "kinds in order" [ "drop"; "flow_done" ]
    (List.map (fun e -> Trace.kind_name e.Trace.kind) (Trace.events tr))

let test_trace_null_disabled () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "null sink off for %s" (Trace.kind_name k))
        false (Trace.on Trace.null k))
    Trace.all_kinds;
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
    (fun () -> ignore (Metrics.counter r "test_depth" : Metrics.counter));
  Metrics.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "reset zeroes gauges" 0. (Metrics.gauge_value g)

let test_metrics_histogram () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~buckets:[ 1.; 10.; 100. ] "test_latency" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 50.; 500.; 7. ];
  Alcotest.(check int) "count" 5 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 562.5 (Metrics.histogram_sum h)

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
    "{\"metrics\": [{\"name\": \"a_total\", \"type\": \"counter\", \"value\": 2}, \
     {\"name\": \"b_depth\", \"type\": \"gauge\", \"value\": 1.5}]}"
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
      Profile.record "work" 0.5;
      Profile.record "other" 0.1;
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
(* Shard: the blocking domain pool behind the sharded price update *)

module Shard = Nf_util.Shard

let prop_shard_chunks_partition =
  QCheck.Test.make ~name:"chunks exactly partition [0, n)" ~count:300
    QCheck.(pair (0 -- 5000) (1 -- 9))
    (fun (n, jobs) ->
      let ok = ref true in
      let prev_hi = ref 0 in
      for k = 0 to jobs - 1 do
        let lo, hi = Shard.chunk ~n ~jobs k in
        if lo <> !prev_hi || hi < lo then ok := false;
        prev_hi := hi
      done;
      !ok && !prev_hi = n)

let test_shard_run_covers () =
  Shard.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "jobs" 4 (Shard.jobs pool);
      let n = 1013 in
      let hits = Array.make n 0 in
      (* Each index is written exactly once, by whichever domain owns its
         chunk; disjointness makes the unsynchronized writes safe. *)
      Shard.run pool ~n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "every index once" true
        (Array.for_all (fun c -> c = 1) hits);
      (* The pool is reusable. *)
      Shard.run pool ~n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "second run too" true
        (Array.for_all (fun c -> c = 2) hits))

let test_shard_exception_propagates () =
  Shard.with_pool ~jobs:3 (fun pool ->
      let boom lo _hi = if lo = 0 then failwith "chunk zero failed" in
      Alcotest.check_raises "caller chunk exception wins"
        (Failure "chunk zero failed") (fun () -> Shard.run pool ~n:30 boom);
      (* The failed run must not poison the pool. *)
      let total = Atomic.make 0 in
      Shard.run pool ~n:30 (fun lo hi ->
          ignore (Atomic.fetch_and_add total (hi - lo)));
      Alcotest.(check int) "pool survives a failed run" 30 (Atomic.get total))

let test_shard_stop_idempotent () =
  let pool = Shard.create ~jobs:2 in
  Shard.run pool ~n:4 (fun _ _ -> ());
  Shard.stop pool;
  Shard.stop pool;
  Alcotest.check_raises "run after stop rejected"
    (Invalid_argument "Shard.run: pool is stopped") (fun () ->
      Shard.run pool ~n:4 (fun _ _ -> ()))

(* ------------------------------------------------------------------ *)
(* Gcstats: per-category allocation accounting and the alloc audit *)

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

let test_gcstats_bytes_per_iteration () =
  let sink = ref [||] in
  let allocating () =
    sink := Sys.opaque_identity (Array.make 8 0.)
  in
  let b = Gcstats.bytes_per_iteration ~warmup:16 ~iters:2_000 allocating in
  (* 8 floats + header = 72 bytes on 64-bit; quantization noise is
     amortized over the iteration count. *)
  Alcotest.(check bool)
    (Printf.sprintf "allocating loop measured (%.1f B/iter)" b)
    true
    (b >= 64. && b <= 96.);
  let clean () = () in
  let b0 = Gcstats.bytes_per_iteration ~warmup:16 ~iters:2_000 clean in
  Alcotest.(check bool)
    (Printf.sprintf "empty loop measures clean (%.3f B/iter)" b0)
    true (Float.abs b0 <= 1.)

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

let test_shard_run_timings () =
  Shard.with_pool ~jobs:3 (fun pool ->
      let timings = Array.make 3 nan in
      Shard.run pool ~timings ~n:300 (fun lo hi ->
          let s = ref 0. in
          for i = lo to hi - 1 do
            s := !s +. float_of_int i
          done;
          ignore (Sys.opaque_identity !s : float));
      Array.iteri
        (fun k dt ->
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d timing filled and sane" k)
            true
            (Float.is_finite dt && dt >= 0.))
        timings;
      (* Entries beyond the chunk count are left untouched. *)
      let short = Array.make 5 (-1.) in
      Shard.run pool ~timings:short ~n:30 (fun _ _ -> ());
      Alcotest.(check (float 0.)) "extra entries untouched" (-1.) short.(4))

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nf_util"
    [
      ( "heap",
        [
          quick "basic order" test_heap_basic;
          quick "pop_exn on empty" test_heap_pop_exn_empty;
          quick "clear" test_heap_clear;
          qcheck prop_heap_sorts;
          qcheck prop_heap_interleaved;
        ] );
      ( "fheap",
        [
          quick "basic order" test_fheap_basic;
          quick "FIFO on equal keys" test_fheap_fifo_ties;
          quick "clear and growth" test_fheap_clear_and_growth;
          qcheck prop_fheap_matches_reference;
        ] );
      ( "ewma",
        [
          quick "fixed gain" test_ewma_gain;
          quick "timed converges to step" test_ewma_timed_convergence;
          quick "out-of-order samples ignored" test_ewma_timed_out_of_order;
          quick "90% rise time" test_ewma_rise_time;
          quick "reset" test_ewma_reset;
        ] );
      ( "rng",
        [
          quick "deterministic" test_rng_deterministic;
          quick "seeds differ" test_rng_seeds_differ;
          quick "float range" test_rng_float_range;
          quick "int uniformity" test_rng_int_range;
          quick "exponential mean" test_rng_exponential_mean;
          quick "split independence" test_rng_split_independent;
          quick "permutation" test_rng_permutation;
          quick "derangement" test_rng_derangement;
          qcheck prop_rng_copy_replays;
        ] );
      ( "stats",
        [
          quick "percentiles" test_stats_percentile;
          quick "mean/stddev" test_stats_mean_stddev;
          quick "boxplot" test_stats_boxplot;
          quick "cdf" test_stats_cdf;
          quick "jain index" test_stats_jain;
          quick "online accumulator" test_stats_online;
          qcheck prop_stats_percentile_bounds;
          qcheck prop_online_matches_batch;
        ] );
      ( "piecewise",
        [
          quick "eval" test_piecewise_eval;
          quick "inverse" test_piecewise_inverse;
          quick "validation" test_piecewise_invalid;
          quick "integral of constant" test_piecewise_integral_constant;
          quick "integral of linear" test_piecewise_integral_linear;
          qcheck prop_piecewise_inverse_roundtrip;
          qcheck prop_piecewise_integral_additive;
          qcheck prop_piecewise_integral_matches_quadrature;
        ] );
      ( "timeseries",
        [
          quick "basics" test_timeseries_basics;
          quick "ordering enforced" test_timeseries_out_of_order;
          quick "time-weighted mean" test_timeseries_mean_over;
          quick "resample" test_timeseries_resample;
          quick "smooth constant" test_timeseries_smooth;
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
          quick "bytes per iteration" test_gcstats_bytes_per_iteration;
        ] );
      ( "shard",
        [
          qcheck prop_shard_chunks_partition;
          quick "run covers and is reusable" test_shard_run_covers;
          quick "chunk timings" test_shard_run_timings;
          quick "exceptions propagate" test_shard_exception_propagates;
          quick "stop is idempotent" test_shard_stop_idempotent;
        ] );
    ]
