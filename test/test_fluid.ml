(* Tests for nf_fluid: the three fluid schemes, the SRPT allocator, the
   convergence meter, and the dynamic flow-level drivers. *)

module Problem = Nf_num.Problem
module Utility = Nf_num.Utility
module Scheme = Nf_fluid.Scheme
module Convergence = Nf_fluid.Convergence
module Dynamic = Nf_fluid.Dynamic
module Srpt = Nf_fluid.Srpt
module Approx = Nf_testkit.Approx

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

let check_close ?(rel = 1e-6) what expected actual =
  if not (Approx.rel_eq ~rel expected actual) then
    Alcotest.failf "%s: expected %.8g, got %.8g" what expected actual

let pf () = Utility.proportional_fair ()

let parking_lot_problem () =
  Problem.create ~caps:[| 10e9; 10e9 |]
    ~groups:
      [
        Problem.single_path (pf ()) [| 0; 1 |];
        Problem.single_path (pf ()) [| 0 |];
        Problem.single_path (pf ()) [| 1 |];
      ]

let settle scheme n =
  for _ = 1 to n do
    scheme.Scheme.step ()
  done;
  scheme.Scheme.rates ()

(* ------------------------------------------------------------------ *)
(* Schemes *)

let test_xwi_scheme_converges () =
  let p = parking_lot_problem () in
  let s = Nf_fluid.Fluid_xwi.make p in
  let rates = settle s 150 in
  check_close ~rel:1e-4 "long" (10e9 /. 3.) rates.(0);
  check_close ~rel:1e-4 "local" (2. *. 10e9 /. 3.) rates.(1)

(* Three alpha = 2 flows through 40G access links into one 10G
   bottleneck (link 0): 150 fluid rounds reach the Oracle's optimum. *)
let test_xwi_matches_oracle () =
  let p =
    Problem.create ~caps:[| 10e9; 40e9; 40e9; 40e9 |]
      ~groups:
        (List.init 3 (fun i ->
             Problem.single_path (Utility.alpha_fair ~alpha:2. ()) [| i + 1; 0 |]))
  in
  let rates = settle (Nf_fluid.Fluid_xwi.make p) 150 in
  Array.iteri
    (fun i expected ->
      check_close ~rel:1e-3 (Printf.sprintf "flow %d" i) expected rates.(i))
    (Nf_num.Oracle.solve p).Nf_num.Oracle.rates

let test_xwi_rebind_preserves_prices () =
  let p = parking_lot_problem () in
  let s = Nf_fluid.Fluid_xwi.make p in
  ignore (settle s 150);
  (* Rebind to the same flow population: the next allocation should
     already be (nearly) optimal because prices persist. *)
  s.Scheme.rebind (parking_lot_problem ());
  let rates = s.Scheme.rates () in
  check_close ~rel:0.02 "instant reconvergence" (10e9 /. 3.) rates.(0)

let test_dgd_scheme_converges () =
  let p = parking_lot_problem () in
  let s = Nf_fluid.Fluid_dgd.make p in
  let rates = settle s 2000 in
  check_close ~rel:0.05 "long" (10e9 /. 3.) rates.(0);
  check_close ~rel:0.05 "local" (2. *. 10e9 /. 3.) rates.(1)

let test_rcp_scheme_converges () =
  let p = parking_lot_problem () in
  let s = Nf_fluid.Fluid_rcp.make ~alpha:1. p in
  let rates = settle s 2000 in
  check_close ~rel:0.08 "long" (10e9 /. 3.) rates.(0);
  check_close ~rel:0.08 "local" (2. *. 10e9 /. 3.) rates.(1)

let test_dgd_rejects_multipath () =
  let p =
    Problem.create ~caps:[| 1e9; 1e9 |]
      ~groups:[ { Problem.utility = pf (); paths = [ [| 0 |]; [| 1 |] ] } ]
  in
  Alcotest.check_raises "multipath rejected"
    (Invalid_argument "Fluid_dgd.make: multipath problems are not supported")
    (fun () -> ignore (Nf_fluid.Fluid_dgd.make p))

let test_scheme_names_and_intervals () =
  let p = parking_lot_problem () in
  Alcotest.(check string) "xwi name" "NUMFabric" (Nf_fluid.Fluid_xwi.make p).Scheme.name;
  Alcotest.(check (float 1e-9)) "xwi interval" 30e-6
    (Nf_fluid.Fluid_xwi.make p).Scheme.interval;
  Alcotest.(check (float 1e-9)) "dgd interval" 16e-6
    (Nf_fluid.Fluid_dgd.make p).Scheme.interval

(* ------------------------------------------------------------------ *)
(* SRPT *)

let test_srpt_allocate_single_link () =
  let rates =
    Srpt.allocate ~caps:[| 10e9 |]
      ~paths:[| [| 0 |]; [| 0 |]; [| 0 |] |]
      ~remaining:[| 5e6; 1e6; 3e6 |]
  in
  Alcotest.(check (array (float 1.))) "smallest remaining takes all"
    [| 0.; 10e9; 0. |] rates

let test_srpt_allocate_multi_link () =
  (* Flow 1 (smallest) occupies link 0; flow 0 (largest) is blocked on
     link 0; flow 2 uses link 1's residual. *)
  let rates =
    Srpt.allocate ~caps:[| 10e9; 4e9 |]
      ~paths:[| [| 0; 1 |]; [| 0 |]; [| 1 |] |]
      ~remaining:[| 9e6; 1e6; 3e6 |]
  in
  Alcotest.(check (array (float 1.))) "greedy by remaining size"
    [| 0.; 10e9; 4e9 |] rates

let prop_srpt_feasible =
  QCheck.Test.make ~name:"srpt allocation is always feasible" ~count:200
    QCheck.(pair small_int (2 -- 6))
    (fun (seed, n_flows) ->
      let rng = Nf_util.Rng.create ~seed in
      let n_links = 3 in
      let caps = Array.init n_links (fun _ -> Nf_util.Rng.uniform rng ~lo:1. ~hi:10.) in
      let paths =
        Array.init n_flows (fun _ ->
            let len = 1 + Nf_util.Rng.int rng 2 in
            Array.sub (Nf_util.Rng.permutation rng n_links) 0 len)
      in
      let remaining =
        Array.init n_flows (fun _ -> Nf_util.Rng.uniform rng ~lo:1e3 ~hi:1e7)
      in
      let rates = Srpt.allocate ~caps ~paths ~remaining in
      let loads = Array.make n_links 0. in
      Array.iteri
        (fun i p -> Array.iter (fun l -> loads.(l) <- loads.(l) +. rates.(i)) p)
        paths;
      Array.for_all (fun x -> x >= 0.) rates
      && Array.for_all2 (fun load cap -> load <= cap *. (1. +. 1e-9)) loads caps)

let test_srpt_scheme_observes_remaining () =
  let p =
    Problem.create ~caps:[| 10e9 |]
      ~groups:[ Problem.single_path (pf ()) [| 0 |]; Problem.single_path (pf ()) [| 0 |] ]
  in
  let s = Srpt.make p in
  s.Scheme.observe_remaining [| 5e6; 1e6 |];
  let rates = s.Scheme.rates () in
  Alcotest.(check (float 1.)) "loser starved" 0. rates.(0);
  Alcotest.(check (float 1.)) "winner full rate" 10e9 rates.(1)

(* ------------------------------------------------------------------ *)
(* Convergence meter *)

(* A synthetic scheme whose single rate approaches 1.0 geometrically. *)
let synthetic_scheme ~factor =
  let x = ref 0. in
  {
    Scheme.name = "synthetic";
    interval = 1e-3;
    step = (fun () -> x := 1. -. ((1. -. !x) *. factor));
    rates = (fun () -> [| !x |]);
    rates_view = (fun () -> [| !x |]);
    rebind = (fun _ -> ());
    observe_remaining = Scheme.nop_observe;
  }

let test_convergence_measures_entry_time () =
  let s = synthetic_scheme ~factor:0.5 in
  let criteria =
    { Convergence.within = 0.1; fraction = 1.; sustain = 3e-3; max_time = 1. }
  in
  (* 1 - 0.5^k <= 0.9 until k = 4 (0.9375): entry at iteration 4 = 4 ms. *)
  match Convergence.measure ~criteria s ~target:[| 1. |] with
  | Some t -> check_close ~rel:1e-9 "entry time" 4e-3 t
  | None -> Alcotest.fail "did not converge"

let test_convergence_timeout () =
  let s = synthetic_scheme ~factor:1.0 in
  (* never moves *)
  let criteria =
    { Convergence.within = 0.1; fraction = 1.; sustain = 1e-3; max_time = 20e-3 }
  in
  Alcotest.(check bool) "timed out" true
    (Convergence.measure ~criteria s ~target:[| 1. |] = None)

(* One sample with 3 of 4 flows within 10% of the target (a target of 0
   matched by a rate of 0): inside at a required fraction of 0.75, not
   at 0.76. *)
let test_fraction_within () =
  let target = [| 10.; 10.; 10.; 0. |] in
  let rates = [| 10.5; 8.; 10.; 0. |] in
  let inside fraction =
    Convergence.sustained
      { Convergence.within = 0.1; fraction; sustain = 0.; max_time = 0. }
      ~period:1. ~last:0 ~target (fun _ -> rates)
    = Some 0
  in
  Alcotest.(check bool) "3 of 4 reach 0.75" true (inside 0.75);
  Alcotest.(check bool) "3 of 4 miss 0.76" false (inside 0.76)

(* One table for the rule both substrates share: each sample is a
   population's rates ('#' on target, '.' 50% off, 'n' no rate yet);
   sustain = ceil (2 / 1) = 2 periods. *)
let test_sustained_rule () =
  let criteria =
    { Convergence.within = 0.1; fraction = 1.; sustain = 2.; max_time = 0. }
  in
  let rates_of = function
    | '#' -> [| 1. |]
    | 'n' -> [| Float.nan |]
    | _ -> [| 0.5 |]
  in
  let one = [| 1. |] in
  List.iter
    (fun (name, target, samples, expected, taken) ->
      let calls = ref 0 in
      let sample i =
        Alcotest.(check int) (name ^ ": sampled in order") !calls i;
        incr calls;
        rates_of samples.[i]
      in
      let entry =
        Convergence.sustained criteria ~period:1.
          ~last:(String.length samples - 1)
          ~target sample
      in
      Alcotest.(check (option int)) name expected entry;
      Alcotest.(check int) (name ^ ": samples taken") taken !calls)
    [
      ("entry index", one, "...#####", Some 3, 6);
      ("a stretch of exactly sustain", one, "..###...", Some 2, 5);
      ("a break one sample short", one, ".##.###.", Some 4, 7);
      ("the give-up point", one, "....##", None, 6);
      ("no samples", one, "", None, 0);
      ("an empty population", [||], "....", Some 0, 3);
      ("a missing rate is outside", one, "nnnnn", None, 5);
    ];
  (* The fluid give-up point keeps ceil's rounded quotient:
     50 ms / 16 us = 3125.0000000000005, so 3126 steps. *)
  let steps = ref 0 in
  let stuck =
    {
      Scheme.name = "stuck";
      interval = 16e-6;
      step = (fun () -> incr steps);
      rates = (fun () -> [| 0. |]);
      rates_view = (fun () -> [| 0. |]);
      rebind = (fun _ -> ());
      observe_remaining = Scheme.nop_observe;
    }
  in
  let criteria = { criteria with sustain = 1e-3; max_time = 50e-3 } in
  Alcotest.(check bool) "never converges" true
    (Convergence.measure ~criteria stuck ~target:[| 1. |] = None);
  Alcotest.(check int) "steps to give up" 3126 !steps

(* ------------------------------------------------------------------ *)
(* The warm oracle *)

(* Ten events over one link set, each starting or stopping three flows
   from a fixed pool of random paths; one carry takes the oracle's
   certified state through all eleven populations. [Oracle.solve] raises
   unless its KKT residual certifies at 1e-5. *)
let test_oracle_carried_ten_events () =
  let caps = [| 10e9; 10e9; 40e9; 40e9; 10e9; 25e9 |] in
  let rng = Nf_util.Rng.create ~seed:5 in
  let pool =
    Array.init 24 (fun _ ->
        let links = Nf_util.Rng.permutation rng (Array.length caps) in
        Array.sub links 0 (1 + Nf_util.Rng.int rng 3))
  in
  let active = Array.init (Array.length pool) (fun i -> i < 12) in
  let carry = Nf_num.Oracle.carry () in
  for event = 0 to 10 do
    if event > 0 then begin
      let start = Nf_util.Rng.bool rng in
      let candidates =
        List.filter (fun i -> active.(i) <> start) (List.init (Array.length pool) Fun.id)
      in
      let picked = Array.of_list candidates in
      Nf_util.Rng.shuffle rng picked;
      Array.iter (fun i -> active.(i) <- start) (Array.sub picked 0 3)
    end;
    let groups =
      List.filter_map
        (fun i -> if active.(i) then Some (Problem.single_path (pf ()) pool.(i)) else None)
        (List.init (Array.length pool) Fun.id)
    in
    let problem = Problem.create ~caps ~groups in
    let warm = (Nf_num.Oracle.solve ~tol:1e-5 ~carry problem).Nf_num.Oracle.rates in
    let exact = (Nf_num.Oracle.solve problem).Nf_num.Oracle.rates in
    Array.iteri
      (fun i x ->
        check_close ~rel:1e-4 (Printf.sprintf "event %d flow %d" event i) exact.(i) x)
      warm
  done

(* ------------------------------------------------------------------ *)
(* Dynamic drivers *)

let solo_flow_spec size =
  {
    Dynamic.key = 0;
    arrival = 0.;
    size;
    path = [| 0 |];
    utility = pf ();
  }

let test_dynamic_single_flow_fct () =
  let flows = [ solo_flow_spec 1.25e6 ] in
  let r =
    Dynamic.run ~caps:[| 10e9 |]
      ~make_scheme:(fun p -> Nf_fluid.Fluid_xwi.make p)
      ~flows ()
  in
  match r.Dynamic.completions with
  | [ c ] ->
    (* 1.25 MB at 10 Gbps = 1 ms, quantized by the 30 us interval. *)
    Alcotest.(check bool) "fct near ideal" true
      (Dynamic.fct c >= 1e-3 -. 1e-9 && Dynamic.fct c < 1.1e-3);
    Alcotest.(check int) "none unfinished" 0 r.Dynamic.unfinished
  | _ -> Alcotest.fail "expected exactly one completion"

let test_dynamic_two_flows_share () =
  let flows =
    [
      solo_flow_spec 12.5e6;
      { (solo_flow_spec 12.5e6) with Dynamic.key = 1 };
    ]
  in
  let r =
    Dynamic.run ~caps:[| 10e9 |]
      ~make_scheme:(fun p -> Nf_fluid.Fluid_xwi.make p)
      ~flows ()
  in
  Alcotest.(check int) "both complete" 2 (List.length r.Dynamic.completions);
  List.iter
    (fun c ->
      (* Equal sharing: each 12.5 MB flow takes ~20 ms. *)
      Alcotest.(check bool) "shared fct" true
        (Dynamic.fct c > 18e-3 && Dynamic.fct c < 22e-3))
    r.Dynamic.completions

let test_dynamic_until_cuts_off () =
  let flows = [ solo_flow_spec 125e6 ] in
  let r =
    Dynamic.run ~caps:[| 10e9 |]
      ~make_scheme:(fun p -> Nf_fluid.Fluid_xwi.make p)
      ~flows ~until:1e-3 ()
  in
  Alcotest.(check int) "unfinished flow counted" 1 r.Dynamic.unfinished

let test_ideal_single_flow_exact () =
  let flows = [ solo_flow_spec 1.25e6 ] in
  let r = Dynamic.run_ideal ~caps:[| 10e9 |] ~flows () in
  match r.Dynamic.completions with
  | [ c ] -> check_close ~rel:1e-5 "exact fct" 1e-3 (Dynamic.fct c)
  | _ -> Alcotest.fail "expected one completion"

let test_ideal_sequential_arrivals () =
  (* Flow 0 alone for 1 ms, then shares with flow 1. With proportional
     fairness each gets 5 Gbps while both are active. *)
  let f0 = solo_flow_spec 2.5e6 in
  (* 2 ms solo, but flow 1 arrives at 1 ms *)
  let f1 = { (solo_flow_spec 1.25e6) with Dynamic.key = 1; arrival = 1e-3 } in
  let r = Dynamic.run_ideal ~caps:[| 10e9 |] ~flows:[ f0; f1 ] () in
  let fct k =
    match
      List.find_opt (fun c -> c.Dynamic.c_key = k) r.Dynamic.completions
    with
    | Some c -> Dynamic.fct c
    | None -> Alcotest.failf "flow %d missing" k
  in
  (* flow0: 1 ms solo (1.25 MB done) + shares the rest: remaining 1.25 MB at
     5 Gbps = 2 ms -> finishes at 3 ms. flow1: 1.25MB at 5G = 2 ms, done at
     3 ms simultaneously. *)
  check_close ~rel:1e-4 "flow 0 fct" 3e-3 (fct 0);
  check_close ~rel:1e-4 "flow 1 fct" 2e-3 (fct 1)

let test_achieved_rate () =
  let c = { Dynamic.c_key = 0; c_arrival = 1.; c_size = 1.25e6; c_finish = 2. } in
  check_close "rate = size*8/fct" 1e7 (Dynamic.achieved_rate c)

let () =
  Alcotest.run "nf_fluid"
    [
      ( "schemes",
        [
          quick "xwi converges to NUM optimum" test_xwi_scheme_converges;
          quick "xwi matches oracle" test_xwi_matches_oracle;
          quick "xwi rebind preserves prices" test_xwi_rebind_preserves_prices;
          quick "dgd converges" test_dgd_scheme_converges;
          quick "rcp converges" test_rcp_scheme_converges;
          quick "dgd rejects multipath" test_dgd_rejects_multipath;
          quick "names and intervals" test_scheme_names_and_intervals;
        ] );
      ( "srpt",
        [
          quick "single link" test_srpt_allocate_single_link;
          quick "multi link" test_srpt_allocate_multi_link;
          quick "scheme observes remaining" test_srpt_scheme_observes_remaining;
          qcheck prop_srpt_feasible;
        ] );
      ( "convergence",
        [
          quick "entry time" test_convergence_measures_entry_time;
          quick "timeout" test_convergence_timeout;
          quick "fraction within" test_fraction_within;
          quick "sustained rule" test_sustained_rule;
        ] );
      ("warm oracle", [ quick "carried across ten events" test_oracle_carried_ten_events ]);
      ( "dynamic",
        [
          quick "single flow fct" test_dynamic_single_flow_fct;
          quick "two flows share" test_dynamic_two_flows_share;
          quick "until cuts off" test_dynamic_until_cuts_off;
          quick "ideal single flow" test_ideal_single_flow_exact;
          quick "ideal sequential arrivals" test_ideal_sequential_arrivals;
          quick "achieved rate" test_achieved_rate;
        ] );
    ]
