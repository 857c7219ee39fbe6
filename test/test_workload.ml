(* Tests for nf_workload: size distributions, traffic generators, and the
   semi-dynamic scenario. *)

module Size_dist = Nf_workload.Size_dist
module Traffic = Nf_workload.Traffic
module Semidynamic = Nf_workload.Semidynamic
module Rng = Nf_util.Rng

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Size distributions *)

(* [n] sizes drawn from [d] on one seed. *)
let draws ?(n = 50_000) ~seed d =
  let rng = Rng.create ~seed in
  Array.init n (fun _ -> Size_dist.sample d rng)

(* The fraction of [sizes] at or below [size]. *)
let fraction_below sizes size =
  let k = Array.fold_left (fun k s -> if s <= size then k + 1 else k) 0 sizes in
  float_of_int k /. float_of_int (Array.length sizes)

let test_websearch_summary () =
  let d = Size_dist.websearch in
  Alcotest.(check string) "name" "websearch" (Size_dist.name d);
  let sizes = draws ~seed:42 d in
  (* The paper: ~50% of flows below 100 KB; ~30% above 1 MB. *)
  let below_100k = fraction_below sizes 100e3 in
  Alcotest.(check bool) "about half below 100 KB" true
    (below_100k > 0.45 && below_100k < 0.62);
  let above_1m = 1. -. fraction_below sizes 1e6 in
  Alcotest.(check bool) "roughly 30% above 1 MB" true
    (above_1m > 0.25 && above_1m < 0.35);
  (* Byte skew: flows above 1 MB should carry the overwhelming majority of
     bytes. *)
  let total = ref 0. and big = ref 0. in
  Array.iter
    (fun s ->
      total := !total +. s;
      if s > 1e6 then big := !big +. s)
    sizes;
  Alcotest.(check bool) "bytes concentrated in large flows" true
    (!big /. !total > 0.85)

let test_enterprise_summary () =
  let sizes = draws ~seed:43 Size_dist.enterprise in
  let below_10k = fraction_below sizes 10e3 in
  Alcotest.(check bool) "~95% below 10 KB" true
    (below_10k > 0.9 && below_10k <= 0.96);
  let two_packets = fraction_below sizes 3000. in
  Alcotest.(check bool) "~70% within 2 packets" true
    (two_packets > 0.6 && two_packets < 0.78)

let test_sample_mean_matches () =
  let d = Size_dist.websearch in
  let rng = Rng.create ~seed:7 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Size_dist.sample d rng
  done;
  let sample_mean = !acc /. float_of_int n in
  let exact = Size_dist.mean d in
  Alcotest.(check bool) "sample mean ~ analytic mean" true
    (Float.abs (sample_mean -. exact) /. exact < 0.1)

let test_of_cdf_validation () =
  Alcotest.check_raises "last probability must be 1"
    (Invalid_argument "Size_dist.of_cdf: last probability must be 1") (fun () ->
      ignore (Size_dist.of_cdf [ (10., 0.5) ]));
  Alcotest.check_raises "sizes increasing"
    (Invalid_argument "Size_dist.of_cdf: sizes must be strictly increasing")
    (fun () -> ignore (Size_dist.of_cdf [ (10., 0.5); (10., 1.) ]))

let prop_samples_in_support =
  QCheck.Test.make ~name:"samples stay inside the distribution support" ~count:100
    QCheck.small_int
    (fun seed ->
      let d = Size_dist.enterprise in
      let rng = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let s = Size_dist.sample d rng in
        if s < 1. || s > 10e6 +. 1. then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Traffic *)

let test_random_pairs () =
  let rng = Rng.create ~seed:5 in
  let hosts = [| 10; 11; 12; 13 |] in
  let pairs = Traffic.random_pairs rng ~hosts ~n:200 in
  Array.iter
    (fun { Traffic.src; dst } ->
      if src = dst then Alcotest.fail "self pair";
      if not (Array.mem src hosts && Array.mem dst hosts) then
        Alcotest.fail "unknown host")
    pairs

let test_half_permutation () =
  let rng = Rng.create ~seed:5 in
  let hosts = Array.init 8 (fun i -> i) in
  let pairs = Traffic.half_permutation rng ~hosts in
  Alcotest.(check int) "half as many pairs" 4 (Array.length pairs);
  Array.iter
    (fun { Traffic.src; dst } ->
      Alcotest.(check bool) "src in first half" true (src < 4);
      Alcotest.(check bool) "dst in second half" true (dst >= 4))
    pairs;
  Alcotest.check_raises "odd host count"
    (Invalid_argument "Traffic.half_permutation: need an even host count >= 2")
    (fun () -> ignore (Traffic.half_permutation rng ~hosts:[| 1; 2; 3 |]))

let test_poisson_arrivals () =
  let rng = Rng.create ~seed:9 in
  let pairs = [| { Traffic.src = 0; dst = 1 } |] in
  let arrivals =
    Traffic.poisson_arrivals rng ~pairs ~size_dist:Size_dist.websearch
      ~rate_per_sec:1000. ~duration:10.
  in
  let n = List.length arrivals in
  (* ~10000 arrivals expected; allow 5 sigma. *)
  Alcotest.(check bool) "arrival count near rate*duration" true
    (n > 9500 && n < 10500);
  let sorted = List.for_all2 (fun a b -> a.Traffic.at <= b.Traffic.at)
      (List.filteri (fun i _ -> i < n - 1) arrivals)
      (List.tl arrivals)
  in
  Alcotest.(check bool) "sorted by time" true sorted

let test_load_to_rate () =
  (* load 0.5 on 128 hosts at 10G with 1 MB flows: 0.5*128*1e10/(8e6). *)
  Alcotest.(check (float 1.)) "rate formula" 80_000.
    (Traffic.load_to_rate ~load:0.5 ~n_hosts:128 ~host_capacity:1e10
       ~mean_size:1e6)

(* ------------------------------------------------------------------ *)
(* Semi-dynamic scenario *)

let prop_semidyn_invariants =
  QCheck.Test.make ~name:"semi-dynamic events respect the active band" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let hosts = Array.init 16 (fun i -> i) in
      let t =
        Semidynamic.generate rng ~hosts ~n_paths:100 ~flows_per_event:10
          ~active_min:30 ~active_max:50 ~n_events:20 ()
      in
      let ok = ref true in
      (* Initial population inside the band. *)
      let n0 = List.length t.Semidynamic.initial in
      if n0 < 30 || n0 > 50 then ok := false;
      (* Replay: events only start inactive flows and stop active ones, and
         the active count stays within the band. *)
      let active = Hashtbl.create 128 in
      List.iter (fun i -> Hashtbl.replace active i ()) t.Semidynamic.initial;
      List.iter
        (fun ev ->
          List.iter
            (fun i -> if Hashtbl.mem active i then ok := false else Hashtbl.replace active i ())
            ev.Semidynamic.started;
          List.iter
            (fun i -> if not (Hashtbl.mem active i) then ok := false else Hashtbl.remove active i)
            ev.Semidynamic.stopped;
          let n = Hashtbl.length active in
          if n < 30 || n > 50 then ok := false;
          match (ev.Semidynamic.started, ev.Semidynamic.stopped) with
          | [], [] -> ok := false
          | _ :: _, _ :: _ -> ok := false
          | _ -> ())
        t.Semidynamic.events;
      !ok)

let test_active_after () =
  let rng = Rng.create ~seed:3 in
  let hosts = Array.init 8 (fun i -> i) in
  let t =
    Semidynamic.generate rng ~hosts ~n_paths:50 ~flows_per_event:5 ~active_min:10
      ~active_max:20 ~n_events:10 ()
  in
  let initial = Semidynamic.active_after t 0 in
  Alcotest.(check (list int)) "active_after 0 = initial"
    (List.sort compare t.Semidynamic.initial)
    initial;
  (* After event 1, the count moved by exactly flows_per_event. *)
  let after1 = Semidynamic.active_after t 1 in
  let diff = abs (List.length after1 - List.length initial) in
  Alcotest.(check int) "one event moves 5 flows" 5 diff

let () =
  Alcotest.run "nf_workload"
    [
      ( "size_dist",
        [
          quick "websearch summary stats" test_websearch_summary;
          quick "enterprise summary stats" test_enterprise_summary;
          quick "sample mean" test_sample_mean_matches;
          quick "of_cdf validation" test_of_cdf_validation;
          qcheck prop_samples_in_support;
        ] );
      ( "traffic",
        [
          quick "random pairs" test_random_pairs;
          quick "half permutation" test_half_permutation;
          quick "poisson arrivals" test_poisson_arrivals;
          quick "load-to-rate formula" test_load_to_rate;
        ] );
      ( "semidynamic",
        [ qcheck prop_semidyn_invariants; quick "active_after" test_active_after ] );
    ]
