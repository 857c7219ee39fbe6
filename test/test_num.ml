(* Tests for nf_num: utilities, weighted max-min, bandwidth functions,
   KKT checking, the xWI iteration and the Oracle solvers. *)

module Utility = Nf_num.Utility
module Problem = Nf_num.Problem
module Maxmin = Nf_num.Maxmin
module Incidence = Nf_num.Incidence
module Reference = Nf_reference.Reference
module Bf = Nf_num.Bandwidth_function
module Kkt = Nf_num.Kkt
module Xwi = Nf_num.Xwi_core
module Oracle = Nf_num.Oracle
module Fcmp = Nf_util.Fcmp
module Approx = Nf_testkit.Approx
module Units = Nf_util.Units
module Piecewise = Nf_util.Piecewise
module Rng = Nf_util.Rng

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let qcheck = QCheck_alcotest.to_alcotest

let check_close ?(rel = 1e-9) what expected actual =
  if not (Approx.rel_eq ~rel expected actual) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let check_rates ?(rel = 1e-6) what expected actual =
  Array.iteri
    (fun i e ->
      if not (Approx.rel_eq ~rel e actual.(i)) then
        Alcotest.failf "%s: flow %d expected %.10g, got %.10g" what i e actual.(i))
    expected

(* Bit equality, except that any two NaNs are equal: the stdlib and
   the hot-loop min/max agree that a NaN comes out, not on its payload. *)
let check_bits what expected actual =
  if not (Float.is_nan expected && Float.is_nan actual) then
    Alcotest.(check int64) what
      (Int64.bits_of_float expected)
      (Int64.bits_of_float actual)

(* The carried start at [prices]: a state holding them, restarted by
   [resize] without the polish. *)
let start_at p ~prices =
  let st = Xwi.at_seed p in
  Array.blit prices 0 st.Xwi.prices 0 (Array.length st.Xwi.prices);
  Xwi.resize ~polish:false p st

(* ------------------------------------------------------------------ *)
(* Utility functions *)

let test_alpha_fair_log () =
  let u = Utility.proportional_fair () in
  check_close "reference U(x) = ln x" (log 5.) (Reference.utility_value u 5.);
  check_close "U'(x) = 1/x" 0.2 (Utility.deriv u 5.);
  check_close "U'^-1(p) = 1/p" 5. (Utility.rate_from_price u 0.2)

let test_alpha_fair_weighted () =
  let u = Utility.alpha_fair ~weight:3. ~alpha:2. () in
  (* U'(x) = w^a x^-a = 9 x^-2 *)
  check_close "deriv" (9. /. 25.) (Utility.deriv u 5.);
  check_close "inverse" 5. (Utility.rate_from_price u (9. /. 25.));
  (* U(x) = w^a x^(1-a) / (1-a) = -9/x *)
  check_close "reference U(x)" (-9. /. 5.) (Reference.utility_value u 5.);
  Alcotest.check_raises "reference U(x) of an opaque utility"
    (Invalid_argument "Reference.utility_value: opaque utility") (fun () ->
      ignore
        (Reference.utility_value
           (Utility.make ~deriv:(fun x -> 1. /. x) ~inv_deriv:(fun p -> 1. /. p))
           5.))

let test_alpha_fair_validation () =
  Alcotest.check_raises "alpha 0"
    (Invalid_argument "Utility.alpha_fair: alpha must be positive") (fun () ->
      ignore (Utility.alpha_fair ~alpha:0. ()));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Utility.alpha_fair: weight must be positive") (fun () ->
      ignore (Utility.alpha_fair ~weight:(-1.) ~alpha:1. ()))

let test_fct_matches_weighted_alpha () =
  (* fct(size, eps) should equal alpha_fair(alpha = eps, w = size^(-1/eps)). *)
  let size = 1e6 and eps = 0.125 in
  let u = Utility.fct ~size ~eps in
  let v = Utility.alpha_fair ~weight:(size ** (-1. /. eps)) ~alpha:eps () in
  List.iter
    (fun x ->
      check_close "deriv agreement" (Utility.deriv v x) (Utility.deriv u x))
    [ 1e3; 1e6; 1e9 ];
  (* Marginal utility at equal rate is larger for smaller flows. *)
  let small = Utility.fct ~size:1e3 ~eps in
  Alcotest.(check bool) "smaller flows have steeper utility" true
    (Utility.deriv small 1e6 > Utility.deriv u 1e6)

let test_deadline_utility () =
  (* Earlier deadlines get steeper utilities, hence priority. *)
  let tight = Utility.deadline ~deadline:1e-3 ~eps:0.125 in
  let loose = Utility.deadline ~deadline:50e-3 ~eps:0.125 in
  Alcotest.(check bool) "tight deadline is steeper" true
    (Utility.deriv tight 1e9 > Utility.deriv loose 1e9);
  Alcotest.check_raises "bad deadline"
    (Invalid_argument "Utility.deadline: deadline must be positive") (fun () ->
      ignore (Utility.deadline ~deadline:0. ~eps:0.125))

let test_fct_remaining_tracks () =
  (* As a flow drains, its remaining-size utility steepens past a fresh
     larger flow's. *)
  let big = Utility.fct_remaining ~remaining:1e7 ~eps:0.125 in
  let drained = Utility.fct_remaining ~remaining:1e4 ~eps:0.125 in
  Alcotest.(check bool) "drained flow gains priority" true
    (Utility.deriv drained 1e8 > Utility.deriv big 1e8);
  (* Degenerate remaining values are clamped, not errors. *)
  let z = Utility.fct_remaining ~remaining:0. ~eps:0.125 in
  Alcotest.(check bool) "zero remaining clamps" true
    (Float.is_finite (Utility.deriv z 1e6))

let test_rate_from_price_clamps () =
  let u = Utility.proportional_fair () in
  let r = Utility.rate_from_price u 0. in
  Alcotest.(check bool) "zero price clamped, finite rate" true (Float.is_finite r)

let prop_inv_deriv_roundtrip =
  QCheck.Test.make ~name:"U'^-1 inverts U' for alpha-fair" ~count:300
    QCheck.(triple (float_range 0.125 5.) (float_range 0.1 10.) (float_range 0.01 1e4))
    (fun (alpha, weight, x) ->
      let u = Utility.alpha_fair ~weight ~alpha () in
      Approx.rel_eq ~rel:1e-6 x (Utility.rate_from_price u (Utility.deriv u x)))

let prop_deriv_decreasing =
  QCheck.Test.make ~name:"marginal utility decreases (concavity)" ~count:300
    QCheck.(triple (float_range 0.125 5.) (float_range 0.01 100.) (float_range 1.01 10.))
    (fun (alpha, x, factor) ->
      let u = Utility.alpha_fair ~alpha () in
      Utility.deriv u (x *. factor) < Utility.deriv u x)

let prop_value_increasing =
  QCheck.Test.make ~name:"utility value increases in rate" ~count:300
    QCheck.(triple (float_range 0.125 5.) (float_range 0.01 100.) (float_range 1.01 10.))
    (fun (alpha, x, factor) ->
      let u = Utility.alpha_fair ~alpha () in
      Reference.utility_value u (x *. factor) > Reference.utility_value u x)

(* ------------------------------------------------------------------ *)
(* Weighted max-min *)

let single_link_paths n = Array.make n [| 0 |]

(* [Maxmin.solve_sparse] over raw capacities and paths, one flow per
   group. *)
let sparse_fill ~caps ~paths ~weights =
  let n = Array.length paths in
  let inc =
    Incidence.create ~caps ~paths ~group_of_flow:(Array.init n Fun.id) ~n_groups:n
  in
  let rates = Incidence.vec n in
  Maxmin.solve_sparse (Maxmin.sparse_workspace inc) inc ~weights ~rates;
  rates

(* Both water-fills on one hand-computed case: the rates of each are
   checked against [expected], and the reference's allocation is
   returned for the bottleneck and fair-share checks. *)
let check_fills what expected ~caps ~paths ~weights =
  let r = Reference.water_fill ~caps ~paths ~weights in
  check_rates what expected r.Reference.rates;
  check_rates (what ^ " (sparse)") expected (sparse_fill ~caps ~paths ~weights);
  r

let test_maxmin_single_link_equal () =
  let r =
    check_fills "equal split" [| 2.5; 2.5; 2.5; 2.5 |] ~caps:[| 10. |]
      ~paths:(single_link_paths 4) ~weights:[| 1.; 1.; 1.; 1. |]
  in
  Array.iter (fun b -> Alcotest.(check int) "bottleneck" 0 b) r.Reference.bottleneck

let test_maxmin_single_link_weighted () =
  let r =
    check_fills "weighted split" [| 2.5; 7.5 |] ~caps:[| 10. |]
      ~paths:(single_link_paths 2) ~weights:[| 1.; 3. |]
  in
  check_close "fair share" 2.5 r.Reference.fair_share.(0);
  check_close "fair share equal across flows" r.Reference.fair_share.(0)
    r.Reference.fair_share.(1)

let test_maxmin_two_bottlenecks () =
  (* l0: cap 10 (flows A, B); l1: cap 4 (flows A, C); equal weights.
     A and C freeze at 2 on l1; B then takes 8 on l0. *)
  let paths = [| [| 0; 1 |]; [| 0 |]; [| 1 |] |] in
  let r =
    check_fills "multi-bottleneck" [| 2.; 8.; 2. |] ~caps:[| 10.; 4. |] ~paths
      ~weights:[| 1.; 1.; 1. |]
  in
  Alcotest.(check int) "A bottleneck is l1" 1 r.Reference.bottleneck.(0);
  Alcotest.(check int) "B bottleneck is l0" 0 r.Reference.bottleneck.(1)

let test_maxmin_parking_lot () =
  (* 3 chain links cap 9; long flow over all, one local flow per link. *)
  let paths = [| [| 0; 1; 2 |]; [| 0 |]; [| 1 |]; [| 2 |] |] in
  ignore
    (check_fills "parking lot" [| 4.5; 4.5; 4.5; 4.5 |] ~caps:[| 9.; 9.; 9. |]
       ~paths ~weights:[| 1.; 1.; 1.; 1. |])

let test_maxmin_validation () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Reference.water_fill: non-positive weight") (fun () ->
      ignore
        (Reference.water_fill ~caps:[| 1. |] ~paths:(single_link_paths 1)
           ~weights:[| 0. |]));
  Alcotest.check_raises "empty path"
    (Invalid_argument "Reference.water_fill: empty path") (fun () ->
      ignore (Reference.water_fill ~caps:[| 1. |] ~paths:[| [||] |] ~weights:[| 1. |]))

let random_single_path_instance rng =
  let n_links = 2 + Rng.int rng 4 in
  let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
  let n_flows = 2 + Rng.int rng 5 in
  let paths =
    Array.init n_flows (fun _ ->
        let len = 1 + Rng.int rng (min 3 n_links) in
        let perm = Rng.permutation rng n_links in
        Array.sub perm 0 len)
  in
  let weights = Array.init n_flows (fun _ -> Rng.uniform rng ~lo:0.2 ~hi:5.) in
  (caps, paths, weights)

let prop_maxmin_is_maxmin =
  QCheck.Test.make ~name:"water-filling output satisfies max-min conditions"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let caps, paths, weights = random_single_path_instance rng in
      let r = Reference.water_fill ~caps ~paths ~weights in
      Reference.is_maxmin ~caps ~paths ~weights r.Reference.rates
      && Reference.is_maxmin ~caps ~paths ~weights
           (sparse_fill ~caps ~paths ~weights))

let prop_maxmin_feasible_and_positive =
  QCheck.Test.make ~name:"water-filling is feasible with positive rates"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let caps, paths, weights = random_single_path_instance rng in
      let r = Reference.water_fill ~caps ~paths ~weights in
      let loads = Array.make (Array.length caps) 0. in
      Array.iteri
        (fun i p -> Array.iter (fun l -> loads.(l) <- loads.(l) +. r.Reference.rates.(i)) p)
        paths;
      Array.for_all (fun x -> x > 0.) r.Reference.rates
      && Array.for_all2 (fun load cap -> load <= cap *. (1. +. 1e-9)) loads caps)

let prop_maxmin_scale_invariant =
  QCheck.Test.make ~name:"scaling all weights leaves rates unchanged" ~count:200
    QCheck.(pair small_int (float_range 0.1 100.))
    (fun (seed, k) ->
      let rng = Rng.create ~seed in
      let caps, paths, weights = random_single_path_instance rng in
      let r1 = Reference.water_fill ~caps ~paths ~weights in
      let r2 =
        Reference.water_fill ~caps ~paths ~weights:(Array.map (fun w -> w *. k) weights)
      in
      Array.for_all2 (Approx.rel_eq ~rel:1e-6) r1.Reference.rates r2.Reference.rates)

(* ------------------------------------------------------------------ *)
(* Bandwidth functions *)

let test_bf_fig2_shape () =
  let b1 = Bf.fig2_flow1 () and b2 = Bf.fig2_flow2 () in
  check_close "B1(2) = 10G" (Units.gbps 10.) (Bf.bandwidth b1 2.);
  check_close "B1(2.5) = 15G" (Units.gbps 15.) (Bf.bandwidth b1 2.5);
  Alcotest.(check bool) "B2(2) ~ 0" true (Bf.bandwidth b2 2. < 1e6);
  check_close ~rel:1e-3 "B2(2.5) = 10G" (Units.gbps 10.) (Bf.bandwidth b2 2.5)

let test_bf_fig2_allocation_10g () =
  let bfs = [| Bf.fig2_flow1 (); Bf.fig2_flow2 () |] in
  let rates, f = Bf.single_link_allocation ~bfs ~capacity:(Units.gbps 10.) in
  (* Flow 1 has strict priority on the first 10 Gbps. *)
  check_close ~rel:1e-3 "flow1 gets everything" (Units.gbps 10.) rates.(0);
  Alcotest.(check bool) "flow2 gets ~nothing" true (rates.(1) < 1e7);
  Alcotest.(check bool) "fair share ~2" true (Float.abs (f -. 2.) < 0.01)

let test_bf_fig2_allocation_25g () =
  let bfs = [| Bf.fig2_flow1 (); Bf.fig2_flow2 () |] in
  let rates, f = Bf.single_link_allocation ~bfs ~capacity:(Units.gbps 25.) in
  check_close ~rel:1e-3 "flow1 15G" (Units.gbps 15.) rates.(0);
  check_close ~rel:1e-3 "flow2 10G" (Units.gbps 10.) rates.(1);
  Alcotest.(check bool) "fair share ~2.5" true (Float.abs (f -. 2.5) < 0.01)

let test_bf_fair_share_roundtrip () =
  let b1 = Bf.fig2_flow1 () in
  List.iter
    (fun f -> check_close ~rel:1e-9 "F(B(f)) = f" f (Bf.fair_share b1 (Bf.bandwidth b1 f)))
    [ 0.5; 1.; 2.; 2.25; 3. ]

let test_bf_create_requires_origin () =
  Alcotest.check_raises "must start at origin"
    (Invalid_argument "Bandwidth_function.create: curve must start at (0, 0)")
    (fun () -> ignore (Bf.create (Piecewise.of_points [ (1., 0.); (2., 1.) ])))

let test_bf_utility_consistency () =
  let b1 = Bf.fig2_flow1 () in
  let u = Bf.utility b1 ~alpha:5. in
  (* U'^-1 inverts U' on the rising part of the curve. *)
  List.iter
    (fun x ->
      check_close ~rel:1e-6 "U'^-1(U'(x)) = x" x
        (Utility.rate_from_price u (Utility.deriv u x)))
    [ Units.gbps 2.; Units.gbps 10.; Units.gbps 14. ]

(* ------------------------------------------------------------------ *)
(* The reference dual solver against closed forms *)

let single_link_problem ~cap utilities =
  Problem.create ~caps:[| cap |]
    ~groups:(List.map (fun u -> Problem.single_path u [| 0 |]) utilities)

let test_oracle_dual_single_link_proportional () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u; u; u ] in
  let sol = Reference.solve_dual p in
  check_rates ~rel:1e-4 "equal shares" [| 2.5; 2.5; 2.5; 2.5 |] sol.Oracle.rates

let test_oracle_dual_single_link_weighted () =
  (* Weighted proportional fairness on one link: x_i = w_i / sum_w * C. *)
  let us =
    [ Utility.proportional_fair ~weight:1. ();
      Utility.proportional_fair ~weight:2. ();
      Utility.proportional_fair ~weight:5. () ]
  in
  let p = single_link_problem ~cap:16. us in
  let sol = Reference.solve_dual p in
  check_rates ~rel:1e-4 "weighted shares" [| 2.; 4.; 10. |] sol.Oracle.rates

let parking_lot_problem ~alpha ~cap =
  (* Flow 0 over links 0 and 1; flow 1 on link 0; flow 2 on link 1. *)
  let u = Utility.alpha_fair ~alpha () in
  Problem.create ~caps:[| cap; cap |]
    ~groups:
      [
        Problem.single_path u [| 0; 1 |];
        Problem.single_path u [| 0 |];
        Problem.single_path u [| 1 |];
      ]

let test_oracle_dual_parking_lot_alpha1 () =
  (* alpha = 1: x0 = C/3, x1 = x2 = 2C/3. *)
  let p = parking_lot_problem ~alpha:1. ~cap:9. in
  let sol = Reference.solve_dual p in
  check_rates ~rel:1e-4 "proportional parking lot" [| 3.; 6.; 6. |] sol.Oracle.rates

let test_oracle_dual_parking_lot_alpha2 () =
  (* alpha = 2: with y = x1 = x2 and x0 = y / sqrt 2, x0 + y = C. *)
  let cap = 10. in
  let p = parking_lot_problem ~alpha:2. ~cap in
  let sol = Reference.solve_dual p in
  let y = cap /. (1. +. (1. /. sqrt 2.)) in
  check_rates ~rel:1e-4 "alpha=2 parking lot" [| y /. sqrt 2.; y; y |] sol.Oracle.rates

let test_oracle_dual_rejects_multipath () =
  let u = Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 1.; 1. |]
      ~groups:[ { Problem.utility = u; paths = [ [| 0 |]; [| 1 |] ] } ]
  in
  Alcotest.check_raises "multipath rejected"
    (Invalid_argument "Reference.solve_dual: multipath problems are not supported")
    (fun () -> ignore (Reference.solve_dual p))

let test_oracle_dual_kkt_certified () =
  let p = parking_lot_problem ~alpha:0.5 ~cap:4. in
  let sol = Reference.solve_dual p in
  Alcotest.(check bool) "kkt residual small" true (Kkt.worst sol.Oracle.kkt < 1e-8)

(* ------------------------------------------------------------------ *)
(* Oracle (xWI) with a carry *)

(* An [Opaque] utility: the log utility's closures without its shape,
   so no Newton polish applies to a problem that has it. *)
let opaque_log () =
  Utility.make
    ~deriv:(fun x -> 1. /. Float.max x 1e-12)
    ~inv_deriv:(fun p -> 1. /. p)

(* The alpha = 1 parking lot over links of 9 with [opaque_log]: a cold
   solve is xWI from its seed, and a carried one keeps the carried
   prices. *)
let opaque_parking_lot () =
  let u = opaque_log () in
  Problem.create ~caps:[| 9.; 9. |]
    ~groups:
      [ Problem.single_path u [| 0; 1 |]; Problem.single_path u [| 0 |];
        Problem.single_path u [| 1 |] ]

let test_oracle_carry_rejects_other_links () =
  let u = Utility.proportional_fair () in
  let carry = Oracle.carry () in
  let cold = Oracle.solve (opaque_parking_lot ()) in
  ignore (Oracle.solve ~carry (opaque_parking_lot ()));
  Alcotest.check_raises "three links against a carry over two"
    (Invalid_argument "Xwi_core.resize: link count changed")
    (fun () ->
      ignore
        (Oracle.solve ~carry
           (Problem.create ~caps:[| 9.; 9.; 9. |]
              ~groups:[ Problem.single_path u [| 0; 1; 2 |] ])));
  (* The carry is left as it was: the same problem again starts from its
     certified state, so it needs no iteration. *)
  let warm = Oracle.solve ~carry (opaque_parking_lot ()) in
  Alcotest.(check bool) "the cold solve iterates" true (cold.Oracle.iterations > 0);
  Alcotest.(check int) "the carried solve certifies at once" 0 warm.Oracle.iterations;
  check_rates ~rel:1e-5 "carried against cold" cold.Oracle.rates warm.Oracle.rates

(* A multipath group, so the carried start is never polished: one flow
   pooled over both links, one competitor on link 0. *)
let pooled_problem ~cap0 =
  let pf = Utility.proportional_fair () in
  Problem.create ~caps:[| cap0; 6. |]
    ~groups:
      [ { Problem.utility = pf; paths = [ [| 0 |]; [| 1 |] ] }; Problem.single_path pf [| 0 |] ]

let test_oracle_carry_emptied_on_failure () =
  let carry = Oracle.carry () in
  ignore (Oracle.solve ~carry (pooled_problem ~cap0:4.));
  (match Oracle.solve ~max_iters:1 ~carry (pooled_problem ~cap0:40.) with
  | _ -> Alcotest.fail "two iterations certified a moved optimum"
  | exception Oracle.Did_not_converge _ -> ());
  (* The failed solve consumed the carried state and left nothing, so the
     next solve is a cold one, bit for bit, and certifies. *)
  let cold = Oracle.solve (pooled_problem ~cap0:4.) in
  let next = Oracle.solve ~carry (pooled_problem ~cap0:4.) in
  Alcotest.(check int) "cold iterations" cold.Oracle.iterations next.Oracle.iterations;
  Array.iteri
    (fun i x -> check_bits (Printf.sprintf "rate %d" i) x next.Oracle.rates.(i))
    cold.Oracle.rates;
  Alcotest.(check bool) "certified" true (Kkt.worst next.Oracle.kkt <= 1e-6)

(* ------------------------------------------------------------------ *)
(* xWI fixed point *)

let test_xwi_single_link_proportional () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let state = Xwi.at_seed p in
  let run = Xwi.run_until_kkt ~tol:1e-12 p Xwi.default_params state in
  Alcotest.(check bool) "converged" true run.Xwi.converged;
  check_rates ~rel:1e-6 "equal shares" [| 5.; 5. |] state.Xwi.rates

(* A seed that is not optimal: on a parking lot of 10 and 20 the
   equal-weight seed gives the long flow 5, while proportional fairness
   gives it x0 = 10 - sqrt 1200 / 6 (the root of 3 x0^2 - 60 x0 + 200 = 0),
   so the run must step. Its rates match that closed form and the legacy
   [Reference] kernels stepped as many times from the same seed. *)
let test_xwi_parking_lot_leaves_seed () =
  let u = Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 10.; 20. |]
      ~groups:
        [
          Problem.single_path u [| 0; 1 |];
          Problem.single_path u [| 0 |];
          Problem.single_path u [| 1 |];
        ]
  in
  let state = Xwi.at_seed p in
  let prices = Array.copy state.Xwi.prices in
  let rates = Array.copy state.Xwi.rates in
  let weights = Array.copy state.Xwi.weights in
  let run = Xwi.run_until_kkt ~tol:1e-10 p Xwi.default_params state in
  Alcotest.(check bool) "converged" true run.Xwi.converged;
  Alcotest.(check bool) "took iterations" true (run.Xwi.iterations > 0);
  for _ = 1 to run.Xwi.iterations do
    Reference.step p Xwi.default_params ~prices ~rates ~weights
  done;
  check_rates ~rel:1e-9 "legacy kernels" rates state.Xwi.rates;
  let x0 = 10. -. (sqrt 1200. /. 6.) in
  check_rates ~rel:1e-6 "closed form" [| x0; 10. -. x0; 20. -. x0 |]
    state.Xwi.rates

let test_xwi_matches_dual_on_parking_lot () =
  List.iter
    (fun alpha ->
      let p = parking_lot_problem ~alpha ~cap:8. in
      let dual = Reference.solve_dual p in
      let sol = Oracle.solve ~tol:1e-5 p in
      check_rates ~rel:1e-3
        (Printf.sprintf "alpha=%g" alpha)
        dual.Oracle.rates sol.Oracle.rates)
    [ 0.5; 1.; 2. ]

let test_xwi_prices_drive_weights () =
  (* At the fixed point, weights equal the optimal rates (paper §4.2). *)
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u; u; u ] in
  let state = Xwi.at_seed p in
  ignore (Xwi.run_until_kkt ~tol:1e-13 p Xwi.default_params state);
  (* The equal-share seed is already certified here, so the run may take
     no step and leave the seed's weights; one step at the certified
     prices computes the fixed point's weights. *)
  Xwi.step p Xwi.default_params state;
  Array.iteri
    (fun i w -> check_close ~rel:1e-5 (Printf.sprintf "w%d = x%d" i i) state.Xwi.rates.(i) w)
    state.Xwi.weights

let test_xwi_multipath_pooling () =
  (* Two links of capacity 4 and 6; one multipath group with a sub-flow on
     each and log utility of the total; plus one single-path competitor on
     link 0 with log utility. NUM: maximize ln(y) + ln(z) with
     y = x_a + x_b, x_a + z <= 4, x_b <= 6. Optimum: pooled flow saturates
     link 1 (x_b = 6); on link 0, ln(y)' = 1/(6 + x_a) < ln(z)' = 1/z at
     equal split, so z > x_a. Solving: p0 = 1/z = 1/(6 + x_a), with
     x_a + z = 4 -> x_a = -1? Infeasible: x_a = 0 (unused sub-flow),
     z = 4, y = 6, with p0 = 1/4 > 1/6 = U'(y): KKT holds with the unused
     sub-flow's path price exceeding the group's marginal utility. *)
  let pool =
    { Problem.utility = Utility.proportional_fair (); paths = [ [| 0 |]; [| 1 |] ] }
  in
  let solo = Problem.single_path (Utility.proportional_fair ()) [| 0 |] in
  let p = Problem.create ~caps:[| 4.; 6. |] ~groups:[ pool; solo ] in
  let sol = Oracle.solve ~tol:1e-4 p in
  check_close ~rel:1e-3 "pooled total" 6. sol.Oracle.group_rates.(0);
  check_close ~rel:1e-3 "solo" 4. sol.Oracle.group_rates.(1);
  Alcotest.(check bool) "sub-flow a idle" true (sol.Oracle.rates.(0) < 0.05)

let prop_xwi_matches_dual_random =
  QCheck.Test.make ~name:"xWI fixed point matches dual solver on random problems"
    ~count:25 QCheck.(pair small_int (0 -- 2))
    (fun (seed, alpha_idx) ->
      let alpha = [| 0.5; 1.; 2. |].(alpha_idx) in
      let rng = Rng.create ~seed:(seed + 1000) in
      let caps, paths, weights = random_single_path_instance rng in
      let groups =
        Array.to_list
          (Array.map2
             (fun path w ->
               Problem.single_path (Utility.alpha_fair ~weight:w ~alpha ()) path)
             paths weights)
      in
      let p = Problem.create ~caps ~groups in
      match Reference.solve_dual ~tol:1e-7 p with
      | exception Oracle.Did_not_converge _ -> QCheck.assume_fail ()
      | dual -> (
        match Oracle.solve ~tol:1e-5 p with
        | exception Oracle.Did_not_converge _ -> false
        | sol ->
          Array.for_all2
            (fun a b -> Approx.rel_eq ~rel:5e-3 a b)
            dual.Oracle.rates sol.Oracle.rates))

let prop_xwi_fixed_point_unique =
  (* The paper proves the xWI fixed point is unique; numerically: starting
     the iteration from very different price vectors must reach the same
     rates (cf. the technical report's randomized experiments). *)
  QCheck.Test.make ~name:"xWI fixed point is independent of the initial prices"
    ~count:30 QCheck.(pair small_int (1 -- 3))
    (fun (seed, scale_exp) ->
      let rng = Rng.create ~seed:(seed + 500) in
      let caps, paths, weights = random_single_path_instance rng in
      let groups =
        Array.to_list
          (Array.map2
             (fun path w ->
               Problem.single_path (Utility.alpha_fair ~weight:w ~alpha:1. ()) path)
             paths weights)
      in
      let p = Problem.create ~caps ~groups in
      let solve_from prices =
        let state = start_at p ~prices in
        ignore (Xwi.run_until_kkt ~tol:1e-8 ~max_iters:20_000 p Xwi.default_params state);
        state.Xwi.rates
      in
      let n_links = Array.length caps in
      let lo = solve_from (Array.make n_links 1e-12) in
      let hi = solve_from (Array.make n_links (10. ** float_of_int scale_exp)) in
      Array.for_all2 (fun a b -> Approx.rel_eq ~rel:1e-4 a b) lo hi)

let prop_multipath_oracle_kkt =
  (* Random multipath instances: the general Oracle must return solutions
     whose KKT residuals certify optimality. *)
  QCheck.Test.make ~name:"multipath oracle solutions satisfy KKT" ~count:20
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 900) in
      let n_links = 3 + Rng.int rng 3 in
      let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
      let n_groups = 2 + Rng.int rng 3 in
      let groups =
        List.init n_groups (fun _ ->
            let n_sub = 1 + Rng.int rng 2 in
            let paths =
              List.init n_sub (fun _ ->
                  let len = 1 + Rng.int rng 2 in
                  Array.sub (Rng.permutation rng n_links) 0 len)
            in
            { Problem.utility = Utility.proportional_fair (); paths })
      in
      let p = Problem.create ~caps ~groups in
      match Oracle.solve ~tol:1e-4 p with
      | sol -> Kkt.worst sol.Oracle.kkt <= 1e-4
      | exception Oracle.Did_not_converge _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* KKT checker *)

let test_kkt_detects_infeasible () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let r = Kkt.check p ~rates:[| 8.; 8. |] ~prices:[| 0.125 |] in
  Alcotest.(check bool) "overload detected" true (r.Kkt.feasibility > 0.5)

let test_kkt_detects_bad_stationarity () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  (* Feasible but prices inconsistent with rates. *)
  let r = Kkt.check p ~rates:[| 5.; 5. |] ~prices:[| 1. |] in
  Alcotest.(check bool) "stationarity violated" true (r.Kkt.stationarity > 0.5)

let test_kkt_accepts_optimum () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let r = Kkt.check p ~rates:[| 5.; 5. |] ~prices:[| 0.2 |] in
  Alcotest.(check bool) "optimal accepted" true (Kkt.worst r < 1e-9)

let test_kkt_slackness () =
  let u = Utility.proportional_fair () in
  (* Two links, flow only uses link 0; a positive price on idle link 1 must
     show up as a slackness violation. *)
  let p =
    Problem.create ~caps:[| 10.; 10. |] ~groups:[ Problem.single_path u [| 0 |] ]
  in
  let r = Kkt.check p ~rates:[| 10. |] ~prices:[| 0.1; 0.1 |] in
  Alcotest.(check bool) "slack priced link flagged" true (r.Kkt.slackness > 0.5)

(* The per-flow definition of the residuals, through the Problem
   accessors: the body [Kkt.check] had before it became one sweep over
   the incidence. Kept here as the oracle that sweep must match bit for
   bit, since the serve loop's iteration counts hang on it. *)
let kkt_oracle ?(used_threshold = 1e-6) problem ~rates ~prices =
  let n_flows = Problem.n_flows problem in
  let n_links = Problem.n_links problem in
  let caps = Problem.caps problem in
  let loads = Array.make n_links 0. in
  Problem.link_loads_into problem ~rates loads;
  let stationarity = ref 0. and unused_direction = ref 0. in
  for i = 0 to n_flows - 1 do
    let g = Problem.flow_group problem i in
    let y = Problem.group_rate problem ~rates g in
    let marginal = Utility.deriv (Problem.group_utility problem g) y in
    let price = Problem.path_price problem ~prices i in
    let scale = Float.max marginal 1e-30 in
    let used = rates.(i) > used_threshold *. Float.max y 1e-30 in
    if used then
      stationarity := Float.max !stationarity (Float.abs (marginal -. price) /. scale)
    else
      unused_direction :=
        Float.max !unused_direction (Float.max 0. (marginal -. price) /. scale)
  done;
  let feasibility = ref 0. in
  for l = 0 to n_links - 1 do
    feasibility :=
      Float.max !feasibility (Float.max 0. (loads.(l) -. caps.(l)) /. caps.(l))
  done;
  let p_ref = Array.fold_left Float.max 0. prices in
  let slackness = ref 0. in
  if p_ref > 0. then
    for l = 0 to n_links - 1 do
      let slack = Float.max 0. (caps.(l) -. loads.(l)) in
      slackness :=
        Float.max !slackness (prices.(l) *. slack /. (p_ref *. caps.(l)))
    done;
  {
    Kkt.stationarity = !stationarity;
    unused_direction = !unused_direction;
    feasibility = !feasibility;
    slackness = !slackness;
  }

let check_report what (expected : Kkt.report) (actual : Kkt.report) =
  let field name e a = check_bits (what ^ ": " ^ name) e a in
  field "stationarity" expected.Kkt.stationarity actual.Kkt.stationarity;
  field "unused_direction" expected.Kkt.unused_direction
    actual.Kkt.unused_direction;
  field "feasibility" expected.Kkt.feasibility actual.Kkt.feasibility;
  field "slackness" expected.Kkt.slackness actual.Kkt.slackness

(* A small multipath problem: 1-4 groups of 1-3 sub-flows over up to 7
   links, utilities drawn from Log, Power (alpha 2 and 0.5) and an Opaque
   closure-only one. *)
let random_kkt_problem rng =
  let n_links = 2 + Rng.int rng 6 in
  let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
  let path () =
    let perm = Rng.permutation rng n_links in
    Array.sub perm 0 (1 + Rng.int rng (min 3 n_links))
  in
  let weight () = Rng.uniform rng ~lo:0.5 ~hi:4. in
  let utility () =
    match Rng.int rng 4 with
    | 0 -> Utility.proportional_fair ~weight:(weight ()) ()
    | 1 -> Utility.alpha_fair ~weight:(weight ()) ~alpha:2. ()
    | 2 -> Utility.alpha_fair ~weight:(weight ()) ~alpha:0.5 ()
    | _ ->
      Utility.make
        ~deriv:(fun x -> 0.5 /. sqrt (Float.max x 1e-12))
        ~inv_deriv:(fun p -> 0.25 /. (p *. p))
  in
  let groups =
    List.init (1 + Rng.int rng 4) (fun _ ->
        { Problem.utility = utility (); paths = List.init (1 + Rng.int rng 3) (fun _ -> path ()) })
  in
  Problem.create ~caps ~groups

(* The per-flow residuals, max-reduced, are the report's
   [max stationarity unused_direction] bit for bit, and the witness
   [check_into] names is the first flow holding that max. *)
let check_flow_residuals what p ~used_threshold ~rates ~prices ~loads =
  let r =
    Array.init (Problem.n_flows p) (fun i ->
        Kkt.flow_residual ~used_threshold p ~rates ~prices i)
  in
  let witness = ref (-2) in
  let report = Kkt.check_into ~used_threshold ~witness p ~rates ~prices ~loads in
  check_bits (what ^ ": max")
    (Float.max report.Kkt.stationarity report.Kkt.unused_direction)
    (Array.fold_left Float.max 0. r);
  let first_max = ref (-1) in
  Array.iteri
    (fun i x ->
      if !first_max < 0 || x > r.(!first_max) then first_max := i)
    r;
  Alcotest.(check int) (what ^ ": witness") !first_max !witness

let test_kkt_check_into_matches_oracle () =
  let rng = Rng.create ~seed:2024 in
  for case = 1 to 300 do
    let p = random_kkt_problem rng in
    let n_links = Problem.n_links p and n_flows = Problem.n_flows p in
    (* One buffer per problem, reused by every check and seeded with
       garbage: check_into must overwrite it, not accumulate into it. *)
    let loads = Array.make n_links 1e300 in
    loads.(0) <- nan;
    let agree what ~rates ~prices =
      let what = Printf.sprintf "case %d, %s" case what in
      let expected = kkt_oracle p ~rates ~prices in
      check_report what expected (Kkt.check_into p ~rates ~prices ~loads);
      check_report (what ^ " (check)") expected (Kkt.check p ~rates ~prices);
      check_report (what ^ " (threshold)")
        (kkt_oracle ~used_threshold:0.3 p ~rates ~prices)
        (Kkt.check_into ~used_threshold:0.3 p ~rates ~prices ~loads);
      List.iter
        (fun used_threshold ->
          check_flow_residuals
            (Printf.sprintf "%s (flow residuals, threshold %g)" what
               used_threshold)
            p ~used_threshold ~rates ~prices ~loads)
        [ Kkt.default_used_threshold; 0.3 ]
    in
    (* Arbitrary iterates: idle sub-flows (zero or below the used
       threshold of their group) next to busy ones. *)
    let rates =
      Array.init n_flows (fun _ ->
          match Rng.int rng 4 with
          | 0 -> 0.
          | 1 -> 1e-12
          | _ -> Rng.uniform rng ~lo:0.1 ~hi:6.)
    in
    let prices = Array.init n_links (fun _ -> Rng.uniform rng ~lo:0. ~hi:2.) in
    agree "random prices" ~rates ~prices;
    agree "all-zero prices" ~rates ~prices:(Array.make n_links 0.);
    let neg_zero = Array.copy prices in
    neg_zero.(Rng.int rng n_links) <- -0.;
    agree "a -0. price" ~rates ~prices:neg_zero;
    agree "all -0. prices" ~rates ~prices:(Array.make n_links (-0.));
    (* Iterates along an xWI run, where the residuals are small and the
       multipath split leaves some sub-flows nearly idle. *)
    let st = Xwi.at_seed p in
    agree "xWI seed" ~rates:st.Xwi.rates ~prices:st.Xwi.prices;
    for _ = 1 to 20 do
      Xwi.step p Xwi.default_params st
    done;
    agree "after 20 xWI steps" ~rates:st.Xwi.rates ~prices:st.Xwi.prices
  done

let test_kkt_check_into_validates () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  Alcotest.check_raises "short loads buffer"
    (Invalid_argument "Kkt.check: loads length") (fun () ->
      ignore
        (Kkt.check_into p ~rates:[| 5.; 5. |] ~prices:[| 0.2 |] ~loads:[||]));
  Alcotest.check_raises "rates length"
    (Invalid_argument "Kkt.check: rates length") (fun () ->
      ignore (Kkt.check p ~rates:[| 5. |] ~prices:[| 0.2 |]))

(* [Xwi.run_until_kkt]'s stopping rule without the witness: a full check
   at every check point. The oracle the witness-first loop must match
   exactly; returns (iterations, converged, final report). *)
let run_until_kkt_oracle ~tol ~check_every ~max_iters p state =
  let rec go iter =
    let report = Kkt.check p ~rates:state.Xwi.rates ~prices:state.Xwi.prices in
    if Kkt.worst report <= tol || iter >= max_iters then
      (iter, Kkt.worst report <= tol, report)
    else begin
      let chunk = min check_every (max_iters - iter) in
      for _ = 1 to chunk do
        Xwi.step p Xwi.default_params state
      done;
      go (iter + chunk)
    end
  in
  go 0

let full_checks =
  Nf_util.Metrics.counter Nf_util.Metrics.global "nf_xwi_kkt_full_checks_total"

(* Check points of the oracle runs, and the full checks [run_until_kkt]
   made at the same points, over every [witness_matches_oracle] call. *)
let oracle_checks = ref 0 and witness_full_checks = ref 0

(* Runs [Xwi.run_until_kkt] and the oracle from bit-identical states and
   requires the same iterations, [converged], final report (the run's
   [kkt], field by field), final residual (the one a capped run reports
   on its [XwiNonconverged] trace event) and rate and price bits.
   [perturb] edits both start states the same way. Returns the run and
   its final state. *)
let witness_matches_oracle what p ~tol ~check_every ~max_iters ~perturb =
  let fresh () =
    let st = Xwi.at_seed p in
    perturb st;
    st
  in
  let oracle_state = fresh () and state = fresh () in
  let iterations, converged, report =
    run_until_kkt_oracle ~tol ~check_every ~max_iters p oracle_state
  in
  let sink = Nf_util.Trace.make ~kinds:[ Nf_util.Trace.XwiNonconverged ] () in
  let saved = Nf_util.Trace.default () in
  Nf_util.Trace.set_default sink;
  let full_before = Nf_util.Metrics.counter_value full_checks in
  let run =
    Fun.protect
      ~finally:(fun () -> Nf_util.Trace.set_default saved)
      (fun () ->
        Xwi.run_until_kkt ~tol ~check_every ~max_iters p Xwi.default_params state)
  in
  oracle_checks := !oracle_checks + 1 + ((iterations + check_every - 1) / check_every);
  witness_full_checks :=
    !witness_full_checks + Nf_util.Metrics.counter_value full_checks - full_before;
  Alcotest.(check int) (what ^ ": iterations") iterations run.Xwi.iterations;
  Alcotest.(check bool) (what ^ ": converged") converged run.Xwi.converged;
  let kkt = run.Xwi.kkt in
  check_bits (what ^ ": kkt stationarity") report.Kkt.stationarity
    kkt.Kkt.stationarity;
  check_bits (what ^ ": kkt unused direction") report.Kkt.unused_direction
    kkt.Kkt.unused_direction;
  check_bits (what ^ ": kkt feasibility") report.Kkt.feasibility
    kkt.Kkt.feasibility;
  check_bits (what ^ ": kkt slackness") report.Kkt.slackness kkt.Kkt.slackness;
  (match Nf_util.Trace.events sink with
  | [] -> Alcotest.(check bool) (what ^ ": no capped-run event") true converged
  | [ e ] ->
    check_bits (what ^ ": reported residual") (Kkt.worst report)
      e.Nf_util.Trace.value
  | _ -> Alcotest.fail (what ^ ": more than one capped-run event"));
  let same name a b =
    Array.iteri (fun i x -> check_bits (Printf.sprintf "%s: %s %d" what name i) x b.(i)) a
  in
  same "rate" oracle_state.Xwi.rates state.Xwi.rates;
  same "price" oracle_state.Xwi.prices state.Xwi.prices;
  (run, state)

(* Seeded Log / Power / Opaque problems with multipath groups: to a
   certificate at both check granularities, into the iteration cap, and
   from an injected NaN rate. *)
let test_witness_stopping_matches_oracle () =
  let rng = Rng.create ~seed:4242 in
  let idle = ref 0 and capped = ref 0 in
  let keep _ = () in
  for case = 1 to 60 do
    let p = random_kkt_problem rng in
    let what = Printf.sprintf "case %d" case in
    List.iter
      (fun check_every ->
        let _, st =
          witness_matches_oracle
            (Printf.sprintf "%s, check_every %d" what check_every)
            p ~tol:1e-6 ~check_every ~max_iters:20_000 ~perturb:keep
        in
        (* Idle sub-flows at the end: the unused-direction term was in
           play. *)
        let y = Array.make (Problem.n_groups p) 0. in
        Problem.group_rates_into p ~rates:st.Xwi.rates y;
        Array.iteri
          (fun i x -> if x <= 1e-6 *. y.(Problem.flow_group p i) then incr idle)
          st.Xwi.rates)
      [ 1; 10 ];
    let run, _ =
      witness_matches_oracle (what ^ ", capped") p ~tol:1e-14 ~check_every:1
        ~max_iters:(5 + Rng.int rng 40) ~perturb:keep
    in
    if not run.Xwi.converged then incr capped;
    let victim = Rng.int rng (Problem.n_flows p) in
    ignore
      (witness_matches_oracle (what ^ ", NaN rate") p ~tol:1e-6
         ~check_every:(1 + Rng.int rng 10) ~max_iters:300
         ~perturb:(fun st -> st.Xwi.rates.(victim) <- nan))
  done;
  Alcotest.(check bool) "some runs end with idle sub-flows" true (!idle > 0);
  Alcotest.(check bool) "some runs hit the cap" true (!capped > 0);
  Alcotest.(check bool) "the witness skipped full checks" true
    (!witness_full_checks < !oracle_checks)

(* ------------------------------------------------------------------ *)
(* Problem structure *)

let test_problem_structure () =
  let u = Utility.proportional_fair () in
  let group = { Problem.utility = u; paths = [ [| 0 |]; [| 1; 2 |] ] } in
  let solo = Problem.single_path u [| 0; 2 |] in
  (* Flow 3's path crosses link 2 twice. *)
  let loop = Problem.single_path u [| 2; 1; 2 |] in
  let p = Problem.create ~caps:[| 1.; 2.; 3. |] ~groups:[ group; solo; loop ] in
  Alcotest.(check int) "flows" 4 (Problem.n_flows p);
  Alcotest.(check int) "groups" 3 (Problem.n_groups p);
  Alcotest.(check bool) "not single path" false (Problem.is_single_path p);
  Alcotest.(check int) "flow 1 group" 0 (Problem.flow_group p 1);
  Alcotest.(check int) "flow 2 group" 1 (Problem.flow_group p 2);
  (* S(l) is a set: the looping flow appears once in link 2's CSC
     column, as in the reference's own S(l). *)
  Alcotest.(check (array int))
    "reference S(2)" [| 1; 2; 3 |]
    (Nf_reference.Reference.link_flows p).(2);
  Alcotest.(check int) "link 2 degree" 3
    (Incidence.link_degree (Problem.incidence p) 2);
  let rates = [| 1.; 2.; 4.; 8. |] in
  check_close "group rate" 3. (Problem.group_rate p ~rates 0);
  let loads = Array.make (Problem.n_links p) 0. in
  Problem.link_loads_into p ~rates loads;
  check_close "load l0" 5. loads.(0);
  check_close "load l1" 10. loads.(1);
  (* ... but its rate loads link 2 once per traversal. *)
  check_close "load l2" 22. loads.(2);
  Alcotest.(check (array (float 0.)))
    "loads match the reference" (Nf_reference.Reference.link_loads p ~rates) loads;
  check_close "path price" 5. (Problem.path_price p ~prices:[| 1.; 2.; 4. |] 2);
  check_close "looping path price" 10.
    (Problem.path_price p ~prices:[| 1.; 2.; 4. |] 3);
  Alcotest.(check bool) "feasible check" false (Problem.feasible p ~rates);
  (* The sweeps behind these accessors do not bounds-check; the accessors
     reject short arrays and bad ids themselves. *)
  Alcotest.check_raises "short rates"
    (Invalid_argument "Problem.group_rate: group id or rates length") (fun () ->
      ignore (Problem.group_rate p ~rates:[| 1. |] 0));
  Alcotest.check_raises "bad flow id"
    (Invalid_argument "Problem.path_price: flow id or prices length") (fun () ->
      ignore (Problem.path_price p ~prices:[| 1.; 2.; 4. |] 4));
  Alcotest.check_raises "short loads"
    (Invalid_argument "Problem.link_loads_into: array length") (fun () ->
      Problem.link_loads_into p ~rates [| 0. |])

let test_problem_validation () =
  let u = Utility.proportional_fair () in
  Alcotest.check_raises "empty path" (Invalid_argument "Problem.create: empty path")
    (fun () ->
      ignore (Problem.create ~caps:[| 1. |] ~groups:[ Problem.single_path u [||] ]));
  Alcotest.check_raises "bad link"
    (Invalid_argument "Problem.create: link id out of range") (fun () ->
      ignore (Problem.create ~caps:[| 1. |] ~groups:[ Problem.single_path u [| 3 |] ]));
  (* A capacity must be positive and finite: an infinite link never
     saturates, so xWI could not settle its price. *)
  List.iter
    (fun (name, c) ->
      Alcotest.check_raises ("create: " ^ name)
        (Invalid_argument "Problem.create: capacity 1 not positive and finite")
        (fun () ->
          ignore
            (Problem.create ~caps:[| 1.; c |]
               ~groups:[ Problem.single_path u [| 0 |] ])))
    [ ("infinity", infinity); ("nan", nan); ("zero", 0.) ];
  let p = Problem.create ~caps:[| 1.; 2. |] ~groups:[ Problem.single_path u [| 0 |] ] in
  List.iter
    (fun (name, c) ->
      Alcotest.check_raises ("set_cap: " ^ name)
        (Invalid_argument "Problem.set_cap: capacity not positive and finite")
        (fun () -> Problem.set_cap p 1 c))
    [ ("infinity", infinity); ("nan", nan); ("zero", 0.) ];
  Alcotest.check_raises "set_cap: bad link"
    (Invalid_argument "Problem.set_cap: link id out of range") (fun () ->
      Problem.set_cap p 2 1.);
  Alcotest.(check (array (float 0.)))
    "rejected set_caps leave the capacities alone" [| 1.; 2. |] (Problem.caps p)

(* ------------------------------------------------------------------ *)
(* Sparse CSR/CSC core vs the legacy reference kernels *)

let test_incidence_structure () =
  let u = Utility.proportional_fair () in
  let group = { Problem.utility = u; paths = [ [| 0 |]; [| 1; 2 |] ] } in
  let solo = Problem.single_path u [| 0; 2 |] in
  let p = Problem.create ~caps:[| 1.; 2.; 3. |] ~groups:[ group; solo ] in
  let inc = Problem.incidence p in
  Alcotest.(check int) "nnz" 5 inc.Incidence.nnz;
  (* The arrays may carry headroom past the counts: compare prefixes. *)
  Alcotest.(check (array int))
    "row_ptr" [| 0; 1; 3; 5 |]
    (Array.sub inc.Incidence.row_ptr 0 (inc.Incidence.n_flows + 1));
  Alcotest.(check (array int))
    "row_cols keeps path order" [| 0; 1; 2; 0; 2 |]
    (Array.sub inc.Incidence.row_cols 0 5);
  Alcotest.(check (array int)) "col_ptr" [| 0; 2; 3; 5 |] inc.Incidence.col_ptr;
  Alcotest.(check (array int))
    "col_rows ascending per link" [| 0; 2; 1; 1; 2 |]
    (Array.sub inc.Incidence.col_rows 0 5);
  Alcotest.(check (array int))
    "grp_ptr" [| 0; 2; 3 |]
    (Array.sub inc.Incidence.grp_ptr 0 (inc.Incidence.n_groups + 1));
  Alcotest.(check (array int))
    "grp_flows" [| 0; 1; 2 |]
    (Array.sub inc.Incidence.grp_flows 0 3);
  Alcotest.(check (array int))
    "group_of_flow" [| 0; 0; 1 |]
    (Array.sub inc.Incidence.group_of_flow 0 inc.Incidence.n_flows);
  Alcotest.(check bool) "multipath => not singleton" false
    inc.Incidence.singleton;
  Alcotest.(check bool) "caps shared with the problem" true
    (inc.Incidence.caps == Problem.caps p)

(* Random mixed single/multipath problem with varied alpha-fair
   utilities: the adversary for the sparse-vs-reference properties. *)
let random_problem rng =
  let n_links = 2 + Rng.int rng 5 in
  let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
  let n_groups = 2 + Rng.int rng 5 in
  let groups =
    List.init n_groups (fun _ ->
        let n_sub = 1 + Rng.int rng 2 in
        let paths =
          List.init n_sub (fun _ ->
              let len = 1 + Rng.int rng (min 3 n_links) in
              Array.sub (Rng.permutation rng n_links) 0 len)
        in
        let alpha = [| 0.5; 1.; 2. |].(Rng.int rng 3) in
        let weight = Rng.uniform rng ~lo:0.2 ~hi:5. in
        { Problem.utility = Utility.alpha_fair ~weight ~alpha (); paths })
  in
  Problem.create ~caps ~groups

(* Water-fill draws for the sparse-vs-reference property, by [kind]:
   - 0: the base mix of [random_problem], weights in [0.2, 5];
   - 1: weights spread from the 1e-30 floor up to 1e300, so active-weight
     sums cancel (half the draws cluster them a few decades apart, where
     the cancellation is partial rather than total), on paths that may
     repeat a link as in kind 3;
   - 2: equal capacities and weights 1 or 2, so levels tie exactly;
   - 3: paths that repeat a link (the flow loads it twice).
   Kinds 0, 2 and 3 are well conditioned. *)
let maxmin_draw rng kind =
  match kind with
  | 0 ->
    let p = random_problem rng in
    (p, Array.init (Problem.n_flows p) (fun _ -> Rng.uniform rng ~lo:0.2 ~hi:5.))
  | _ ->
    let n_links = 2 + Rng.int rng 6 in
    let cap = Rng.uniform rng ~lo:1. ~hi:10. in
    let caps =
      Array.init n_links (fun _ ->
          if kind = 2 then cap else Rng.uniform rng ~lo:1. ~hi:10.)
    in
    let n_flows = 2 + Rng.int rng 10 in
    let path () =
      let len = 1 + Rng.int rng (min 3 n_links) in
      let links = Array.sub (Rng.permutation rng n_links) 0 len in
      if (kind = 1 || kind = 3) && Rng.int rng 2 = 0 then
        Array.append links [| links.(Rng.int rng len) |]
      else links
    in
    let u = Utility.proportional_fair () in
    let p =
      Problem.create ~caps
        ~groups:(List.init n_flows (fun _ -> Problem.single_path u (path ())))
    in
    let exps = Array.init 3 (fun _ -> Rng.uniform rng ~lo:(-30.) ~hi:299.) in
    let clustered = Rng.int rng 2 = 0 in
    let weight () =
      match kind with
      | 1 when clustered ->
        (10. ** exps.(Rng.int rng 3)) *. Rng.uniform rng ~lo:1. ~hi:10.
      | 1 -> 10. ** Rng.uniform rng ~lo:(-30.) ~hi:300.
      | 2 -> float_of_int (1 + Rng.int rng 2)
      | _ -> Rng.uniform rng ~lo:0.2 ~hi:5.
    in
    (p, Array.init n_flows (fun _ -> weight ()))

let prop_sparse_maxmin_matches_reference =
  QCheck.Test.make
    ~name:
      "sparse water-filling matches the legacy solver within 1e-9 when \
       well conditioned, and is feasible on every draw"
    ~count:600 (QCheck.int_bound 3999)
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 2000) in
      let kind = seed mod 4 in
      let p, weights = maxmin_draw rng kind in
      let inc = Problem.incidence p in
      let ws = Maxmin.sparse_workspace inc in
      let rates = Incidence.vec (Problem.n_flows p) in
      Maxmin.solve_sparse ws inc ~weights ~rates;
      Array.for_all (fun x -> Float.is_finite x && x >= 0.) rates
      && Problem.feasible p ~rates
      && (kind = 1
         || Array.for_all2 (Approx.rel_eq ~rel:1e-9)
              (Reference.maxmin p ~weights).Reference.rates rates))

let prop_sparse_step_matches_reference =
  QCheck.Test.make ~name:"sparse xWI step matches the legacy step within 1e-9"
    ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 3000) in
      let p = random_problem rng in
      let state = Xwi.at_seed p in
      let prices = Array.copy state.Xwi.prices in
      let rates = Array.copy state.Xwi.rates in
      let weights = Array.copy state.Xwi.weights in
      let ok = ref true in
      for _ = 1 to 5 do
        Xwi.step p Xwi.default_params state;
        Reference.step p Xwi.default_params ~prices ~rates ~weights;
        ok :=
          !ok
          && Array.for_all2 (Approx.rel_eq ~rel:1e-9) prices state.Xwi.prices
          && Array.for_all2 (Approx.rel_eq ~rel:1e-9) rates state.Xwi.rates
          && Array.for_all2 (Approx.rel_eq ~rel:1e-9) weights state.Xwi.weights
      done;
      !ok)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ------------------------------------------------------------------ *)
(* Delta interface: flow churn, gid stability, capacity generations *)

let test_delta_add_remove_commit () =
  let u = Utility.proportional_fair () in
  let p = Problem.create_groups ~caps:[| 10.; 10. |] ~groups:[||] in
  Alcotest.(check int) "starts empty" 0 (Problem.n_groups p);
  let g0 = Problem.generation p in
  let a = Problem.add_group p (Problem.single_path u [| 0 |]) in
  let b = Problem.add_group p (Problem.single_path u [| 0; 1 |]) in
  let c = Problem.add_group p (Problem.single_path u [| 1 |]) in
  Alcotest.(check bool) "dirty before commit" true (Problem.dirty p);
  Problem.commit p;
  Alcotest.(check bool) "clean after commit" false (Problem.dirty p);
  Alcotest.(check bool) "generation moved" false
    (Int.equal g0 (Problem.generation p));
  Alcotest.(check int) "three groups" 3 (Problem.n_groups p);
  (* First commit assigns dense ids in insertion order. *)
  Alcotest.(check (option int)) "a dense 0" (Some 0) (Problem.group_index p a);
  Alcotest.(check (option int)) "b dense 1" (Some 1) (Problem.group_index p b);
  (* Remove the middle group: tombstone now, compaction at the next read;
     survivors keep their gids but dense ids shift down. *)
  Problem.remove_group p b;
  Alcotest.(check int) "two groups after compaction" 2 (Problem.n_groups p);
  Alcotest.(check (option int)) "b unmapped" None (Problem.group_index p b);
  Alcotest.(check (option int)) "a keeps dense 0" (Some 0)
    (Problem.group_index p a);
  Alcotest.(check (option int)) "c compacted to dense 1" (Some 1)
    (Problem.group_index p c);
  Alcotest.(check int) "flows follow the compaction" 2 (Problem.n_flows p);
  (* A fresh add after removals gets a fresh gid, never a recycled one. *)
  let d = Problem.add_group p (Problem.single_path u [| 1 |]) in
  Alcotest.(check bool) "gids are never recycled" true
    (d <> a && d <> b && d <> c)

let test_delta_validation () =
  let u = Utility.proportional_fair () in
  let p = Problem.create_groups ~caps:[| 1. |] ~groups:[||] in
  Alcotest.check_raises "empty path"
    (Invalid_argument "Problem.add_group: empty path") (fun () ->
      ignore (Problem.add_group p (Problem.single_path u [||])));
  Alcotest.check_raises "bad link"
    (Invalid_argument "Problem.add_group: link id out of range") (fun () ->
      ignore (Problem.add_group p (Problem.single_path u [| 1 |])));
  let g = Problem.add_group p (Problem.single_path u [| 0 |]) in
  Problem.remove_group p g;
  Alcotest.check_raises "double remove"
    (Invalid_argument
       (Printf.sprintf "Problem.remove_group: gid %d already removed" g))
    (fun () -> Problem.remove_group p g);
  Alcotest.check_raises "unknown gid"
    (Invalid_argument "Problem.remove_group: unknown gid 999") (fun () ->
      Problem.remove_group p 999)

let test_delta_stale_state_guarded () =
  (* Solver state sized for an old snapshot must refuse to step once the
     topology generation moved (silent reuse would read out-of-date dense
     ids — worst case out-of-bounds writes). *)
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let state = Xwi.init p in
  ignore (Problem.add_group p (Problem.single_path u [| 0 |]));
  Problem.commit p;
  Alcotest.check_raises "stale step rejected"
    (Invalid_argument
       "Xwi_core.step: problem topology changed since init; call \
        Xwi_core.resize")
    (fun () -> Xwi.step p Xwi.default_params state);
  (* resize rebuilds against the new snapshot and is steppable again. *)
  let state = Xwi.resize p state in
  Xwi.step p Xwi.default_params state;
  Alcotest.(check int) "resized state covers the new flow" 3
    (Array.length state.Xwi.rates)

let test_delta_caps_midrun () =
  (* Figure 10's capacity-change path: converge, change a link speed with
     [set_cap] mid-run, keep stepping the *same* state (capacity changes
     are not topology changes — no resize), and the allocation must track
     the new capacity. *)
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let state = Xwi.at_seed p in
  let run = Xwi.run_until_kkt ~tol:1e-9 ~check_every:1 p Xwi.default_params state in
  Alcotest.(check bool) "converged at 10G" true run.Xwi.converged;
  check_rates ~rel:1e-6 "equal shares of 10" [| 5.; 5. |] state.Xwi.rates;
  let topo_gen = Problem.generation p in
  Problem.set_cap p 0 20.;
  Alcotest.(check bool) "topology generation unchanged" true
    (Int.equal topo_gen (Problem.generation p));
  let run = Xwi.run_until_kkt ~tol:1e-9 ~check_every:1 p Xwi.default_params state in
  Alcotest.(check bool) "re-converged at 20G" true run.Xwi.converged;
  check_rates ~rel:1e-6 "equal shares of 20" [| 10.; 10. |] state.Xwi.rates;
  Alcotest.(check bool) "warm cap change re-solve satisfies KKT" true
    (Kkt.worst (Kkt.check p ~rates:state.Xwi.rates ~prices:state.Xwi.prices)
    < 1e-8);
  (* A direct write into [caps] is picked up by the same state too: the
     incidence shares the array. *)
  (Problem.caps p).(0) <- 10.;
  ignore (Xwi.run_until_kkt ~tol:1e-9 ~check_every:1 p Xwi.default_params state);
  check_rates ~rel:1e-6 "back to shares of 10" [| 5.; 5. |] state.Xwi.rates;
  Alcotest.(check bool) "topology generation unchanged by a raw write" true
    (Int.equal topo_gen (Problem.generation p))

(* A random single-link-id path over the problem's links, for churn
   properties. These start from [Xwi.at_seed], not [Xwi.init]'s
   polished cold start: the prices they carry into a resize are xWI's
   own, partly converged where a run is capped, and a cold reference is
   xWI from its seed, independent of the polish the warm path runs. *)
let random_path rng ~n_links =
  let len = 1 + Rng.int rng (min 3 n_links) in
  Array.sub (Rng.permutation rng n_links) 0 len

let prop_warm_churn_matches_cold =
  QCheck.Test.make
    ~name:"add -> warm solve -> remove -> warm solve lands on the cold fixpoint"
    ~count:20 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 5000) in
      let p = random_problem rng in
      (* Some random instances have a KKT-residual floor around 1e-8
         (finite-precision xWI), so don't demand convergence at this
         tolerance — run to the floor and compare the allocations. *)
      let tol = 1e-10 in
      let solve st = Xwi.run_until_kkt ~tol ~check_every:1 p Xwi.default_params st in
      let state = ref (Xwi.at_seed p) in
      ignore (solve !state);
      (* Arrival: a fresh proportional-fair flow on a random path. *)
      let gid =
        Problem.add_group p
          (Problem.single_path (Utility.proportional_fair ())
             (random_path rng ~n_links:(Problem.n_links p)))
      in
      Problem.commit p;
      state := Xwi.resize p !state;
      ignore (solve !state);
      (* Departure of the same flow: the final problem is the original. *)
      Problem.remove_group p gid;
      Problem.commit p;
      state := Xwi.resize p !state;
      let warm_run = solve !state in
      let cold_state = Xwi.at_seed p in
      let cold_run = solve cold_state in
      (* Compare *group* totals: multipath sub-flow splits are not unique
         at the optimum (only the group rate is), so per-flow rates of two
         KKT-certified solutions may legitimately differ. Converged
         instances must agree to 1e-9; floor-limited ones (capped at the
         instance's residual floor) get floor-scale slop. *)
      let rel =
        if warm_run.Xwi.converged && cold_run.Xwi.converged then 1e-9 else 1e-8
      in
      let n_groups = Problem.n_groups p in
      let warm_g = Array.make n_groups 0. in
      let cold_g = Array.make n_groups 0. in
      Problem.group_rates_into p ~rates:!state.Xwi.rates warm_g;
      Problem.group_rates_into p ~rates:cold_state.Xwi.rates cold_g;
      Array.for_all2 (Approx.rel_eq ~rel) warm_g cold_g)

let prop_kkt_after_random_churn =
  QCheck.Test.make
    ~name:"warm re-solves satisfy KKT across randomized churn" ~count:15
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 6000) in
      let p = random_problem rng in
      let n_links = Problem.n_links p in
      (* Initial groups get gids 0 .. n-1 (mli contract). *)
      let live = ref (List.init (Problem.n_groups p) Fun.id) in
      (* The always-on service's tolerance: comfortably above any random
         instance's KKT-residual floor, so converged must hold. *)
      let tol = 1e-6 in
      let state = ref (Xwi.at_seed p) in
      ignore (Xwi.run_until_kkt ~tol ~check_every:1 p Xwi.default_params !state);
      let ok = ref true in
      for _ = 1 to 6 do
        (if List.length !live <= 1 || Rng.int rng 2 = 0 then
           let gid =
             Problem.add_group p
               (Problem.single_path (Utility.proportional_fair ())
                  (random_path rng ~n_links))
           in
           live := gid :: !live
         else begin
           let victim = List.nth !live (Rng.int rng (List.length !live)) in
           Problem.remove_group p victim;
           live := List.filter (fun g -> g <> victim) !live
         end);
        Problem.commit p;
        state := Xwi.resize p !state;
        let run =
          Xwi.run_until_kkt ~tol ~check_every:1 p Xwi.default_params !state
        in
        let worst =
          Kkt.worst
            (Kkt.check p ~rates:!state.Xwi.rates ~prices:!state.Xwi.prices)
        in
        ok := !ok && run.Xwi.converged && worst <= tol
      done;
      !ok)

(* [p]'s snapshot against [fresh]'s, field by field up to the counts (the
   patched arrays carry headroom), plus the accessors the incidence does
   not hold. Utilities compare physically: both problems hold the
   specs' own values. *)
let check_same_snapshot p fresh =
  let a = Problem.incidence p and b = Problem.incidence fresh in
  let ints name n x y =
    if Array.sub x 0 n <> Array.sub y 0 n then QCheck.Test.fail_reportf "%s differs" name
  in
  let count name x y = if x <> y then QCheck.Test.fail_reportf "%s: %d vs %d" name x y in
  count "n_links" a.Incidence.n_links b.Incidence.n_links;
  count "n_flows" a.Incidence.n_flows b.Incidence.n_flows;
  count "n_groups" a.Incidence.n_groups b.Incidence.n_groups;
  count "nnz" a.Incidence.nnz b.Incidence.nnz;
  let n_flows = a.Incidence.n_flows
  and n_groups = a.Incidence.n_groups
  and n_links = a.Incidence.n_links in
  ints "row_ptr" (n_flows + 1) a.Incidence.row_ptr b.Incidence.row_ptr;
  ints "row_cols" a.Incidence.nnz a.Incidence.row_cols b.Incidence.row_cols;
  ints "col_ptr" (n_links + 1) a.Incidence.col_ptr b.Incidence.col_ptr;
  ints "col_rows" a.Incidence.col_ptr.(n_links) a.Incidence.col_rows b.Incidence.col_rows;
  ints "grp_ptr" (n_groups + 1) a.Incidence.grp_ptr b.Incidence.grp_ptr;
  ints "grp_flows" n_flows a.Incidence.grp_flows b.Incidence.grp_flows;
  ints "group_of_flow" n_flows a.Incidence.group_of_flow b.Incidence.group_of_flow;
  if a.Incidence.singleton <> b.Incidence.singleton then
    QCheck.Test.fail_reportf "singleton differs";
  if a.Incidence.caps != Problem.caps p || a.Incidence.caps <> b.Incidence.caps then
    QCheck.Test.fail_reportf "caps differ";
  for i = 0 to n_flows - 1 do
    if Problem.flow_path p i <> Problem.flow_path fresh i then
      QCheck.Test.fail_reportf "flow_path %d differs" i;
    count "flow_group" (Problem.flow_group p i) (Problem.flow_group fresh i)
  done;
  for g = 0 to n_groups - 1 do
    if (Problem.utilities p).(g) != (Problem.utilities fresh).(g) then
      QCheck.Test.fail_reportf "utility %d differs" g
  done;
  (* The CSC against S(l) built from the flow paths alone. *)
  Array.iteri
    (fun l flows ->
      ints
        (Printf.sprintf "S(%d)" l)
        (Array.length flows)
        (Array.sub a.Incidence.col_rows a.Incidence.col_ptr.(l)
           (Incidence.link_degree a l))
        flows)
    (Reference.link_flows p)

(* The in-place commit against a fresh build: random scripts of arrivals
   (single-path and multipath groups, some paths crossing a link twice),
   departures and capacity changes, committed in batches of 1-20 events;
   one batch drains every group and the ones after it refill. After
   every commit the snapshot must equal [Problem.create_groups] of the
   live ledger in insertion order; the generation moves by one exactly
   when the batch added or removed a group; and a solver state built for
   the previous generation must refuse to step. *)
let prop_commit_matches_fresh_build =
  QCheck.Test.make ~name:"in-place commit equals a fresh build of the live ledger"
    ~count:40 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 7000) in
      let n_links = 2 + Rng.int rng 12 in
      let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
      let p = Problem.create_groups ~caps ~groups:[||] in
      let path () =
        let path = random_path rng ~n_links in
        if Rng.int rng 4 = 0 then Array.append path [| path.(0) |] else path
      in
      let spec () =
        let utility =
          Utility.alpha_fair ~alpha:[| 0.5; 1.; 2. |].(Rng.int rng 3) ()
        in
        let n_sub = if Rng.int rng 3 = 0 then 2 + Rng.int rng 2 else 1 in
        { Problem.utility; paths = List.init n_sub (fun _ -> path ()) }
      in
      (* The live ledger in insertion order: (gid, spec). *)
      let live = ref [||] in
      let add () =
        let sp = spec () in
        live := Array.append !live [| (Problem.add_group p sp, sp) |]
      in
      let remove k =
        Problem.remove_group p (fst !live.(k));
        live := Array.append (Array.sub !live 0 k)
            (Array.sub !live (k + 1) (Array.length !live - k - 1))
      in
      let stale = ref None and gen = ref (Problem.generation p) in
      for batch = 1 to 30 do
        let changed = ref false in
        if batch = 12 then begin
          (* Drain. *)
          changed := Array.length !live > 0;
          while Array.length !live > 0 do
            remove (Rng.int rng (Array.length !live))
          done
        end
        else
          for _ = 1 to 1 + Rng.int rng 20 do
            let n = Array.length !live in
            match Rng.int rng 10 with
            | 9 -> Problem.set_cap p (Rng.int rng n_links) (Rng.uniform rng ~lo:1. ~hi:10.)
            | r when n = 0 || (r < 5 && n < 30) ->
              add ();
              changed := true
            | _ ->
              remove (Rng.int rng n);
              changed := true
          done;
        if Problem.dirty p <> !changed then QCheck.Test.fail_reportf "dirty flag";
        Problem.commit p;
        let fresh =
          Problem.create_groups ~caps:(Problem.caps p) ~groups:(Array.map snd !live)
        in
        check_same_snapshot p fresh;
        let expected = if !changed then !gen + 1 else !gen in
        if Problem.generation p <> expected then
          QCheck.Test.fail_reportf "generation %d, expected %d" (Problem.generation p)
            expected;
        gen := expected;
        (match !stale with
        | Some st when !changed -> (
          match Xwi.step p Xwi.default_params st with
          | () -> QCheck.Test.fail_reportf "a stale state stepped"
          | exception Invalid_argument _ -> ())
        | _ -> ());
        stale := if Problem.n_flows p > 0 then Some (Xwi.at_seed p) else None
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Warm restart: the Newton-polished start of [Xwi_core.resize] *)

let random_alpha_fair rng =
  let alpha = [| 0.5; 1.; 2. |].(Rng.int rng 3) in
  Utility.alpha_fair ~weight:(Rng.uniform rng ~lo:0.2 ~hi:5.) ~alpha ()

(* [random_problem] with one path per group, so the polish applies. *)
let random_single_path_problem rng =
  let n_links = 2 + Rng.int rng 5 in
  let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1. ~hi:10.) in
  Problem.create ~caps
    ~groups:
      (List.init
         (2 + Rng.int rng 5)
         (fun _ ->
           Problem.single_path (random_alpha_fair rng) (random_path rng ~n_links)))

let worst_of p (st : Xwi.state) =
  Kkt.worst (Kkt.check p ~rates:st.Xwi.rates ~prices:st.Xwi.prices)

let prop_polished_start_no_worse =
  QCheck.Test.make
    ~name:"resize's start is no worse (KKT) than the carried start under churn"
    ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 7000) in
      let p = random_single_path_problem rng in
      let n_links = Problem.n_links p in
      let live = ref (List.init (Problem.n_groups p) Fun.id) in
      let state = ref (Xwi.at_seed p) in
      ignore (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 p Xwi.default_params !state);
      let ok = ref true in
      for _ = 1 to 6 do
        (if List.length !live <= 1 || Rng.int rng 2 = 0 then
           live :=
             Problem.add_group p
               (Problem.single_path (random_alpha_fair rng) (random_path rng ~n_links))
             :: !live
         else begin
           let victim = List.nth !live (Rng.int rng (List.length !live)) in
           Problem.remove_group p victim;
           live := List.filter (fun g -> g <> victim) !live
         end);
        Problem.commit p;
        let carried = start_at p ~prices:!state.Xwi.prices in
        state := Xwi.resize p !state;
        ok := !ok && worst_of p !state <= worst_of p carried;
        ignore
          (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 p Xwi.default_params !state)
      done;
      !ok)

let check_same_state what (a : Xwi.state) (b : Xwi.state) =
  let same name x y =
    Alcotest.(check int) (what ^ " " ^ name ^ " length") (Array.length x) (Array.length y);
    Array.iteri (fun i v -> check_bits (Printf.sprintf "%s %s.(%d)" what name i) v y.(i)) x
  in
  same "prices" a.Xwi.prices b.Xwi.prices;
  same "rates" a.Xwi.rates b.Xwi.rates;
  same "weights" a.Xwi.weights b.Xwi.weights

(* Converge [p], add one flow on [path] with [utility], and return the
   converged state's resize against the carried start. *)
let resize_after_arrival p ~utility ~paths =
  let state = Xwi.at_seed p in
  ignore (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 p Xwi.default_params state);
  ignore (Problem.add_group p { Problem.utility; paths });
  Problem.commit p;
  let carried = start_at p ~prices:state.Xwi.prices in
  (Xwi.resize p state, carried)

let test_polish_fallback_bit_identical () =
  let caps = [| 10.; 4.; 6. |] in
  let pf = Utility.proportional_fair () in
  let opaque = opaque_log () in
  let single =
    Problem.create ~caps
      ~groups:
        [
          Problem.single_path pf [| 0; 1 |];
          Problem.single_path opaque [| 0; 2 |];
          Problem.single_path pf [| 2 |];
        ]
  in
  let resized, carried =
    resize_after_arrival single ~utility:pf ~paths:[ [| 1; 2 |] ]
  in
  Alcotest.(check bool) "opaque: carried start" false (Xwi.polished resized);
  check_same_state "opaque" carried resized;
  let multipath =
    Problem.create ~caps
      ~groups:
        [
          Problem.single_path pf [| 0; 1 |];
          { Problem.utility = pf; paths = [ [| 0 |]; [| 2 |] ] };
        ]
  in
  let resized, carried =
    resize_after_arrival multipath ~utility:pf ~paths:[ [| 1; 2 |] ]
  in
  Alcotest.(check bool) "multipath: carried start" false (Xwi.polished resized);
  check_same_state "multipath" carried resized

(* A churned leaf-spine, the serve workload's fabric at a fifth of its
   population: the polish runs on a realistic active set. *)
let test_polish_deterministic () =
  let ls = Nf_topo.Builders.leaf_spine ~n_leaves:4 ~n_spines:2 ~servers_per_leaf:8 () in
  let topo = ls.Nf_topo.Builders.topo in
  let router = Nf_topo.Routing.router topo in
  let rng = Rng.create ~seed:11 in
  let servers = ls.Nf_topo.Builders.servers in
  let path k =
    let n = Array.length servers in
    let src = servers.(Rng.int rng n) in
    let rec dst () =
      let d = servers.(Rng.int rng n) in
      if d = src then dst () else d
    in
    Array.of_list
      (Nf_topo.Routing.ecmp_path_fast router ~src ~dst:(dst ()) ~hash:(k * 2654435761))
  in
  let caps =
    Array.map (fun l -> l.Nf_topo.Topology.capacity) (Nf_topo.Topology.links topo)
  in
  let pf = Utility.proportional_fair () in
  let p =
    Problem.create ~caps ~groups:(List.init 20 (fun k -> Problem.single_path pf (path k)))
  in
  (* A resize consumes its state, so the two resizes take two old states
     converged the same way, each with its own buffers. *)
  let converged () =
    let state = Xwi.at_seed p in
    ignore (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 p Xwi.default_params state);
    state
  in
  let state_a = converged () and state_b = converged () in
  ignore (Problem.add_group p (Problem.single_path pf (path 20)));
  Problem.commit p;
  let a = Xwi.resize p state_a in
  let b = Xwi.resize p state_b in
  Alcotest.(check bool) "polished" true (Xwi.polished a);
  Alcotest.(check bool) "same start" (Xwi.polished a) (Xwi.polished b);
  check_same_state "two identical old states" a b

module Polish = Nf_num.Newton_polish

let polish_counter name = Nf_util.Metrics.counter Nf_util.Metrics.global name

(* An active set whose Cholesky factor has fill: host link 0 couples
   links 1 and 2, which share no flow, and is eliminated first (links 1
   and 2 also couple to two links each), so the factor gains the entry
   (2, 1) through the elimination tree. The polished prices are pinned
   bit for bit to those a dense factorization (every entry of M cleared
   and scanned) gives: a pattern that missed fill would still converge,
   but to other bits (it takes 10 Newton steps here, not 5). The
   proportional step before the first factorization leaves Newton steps
   to take, so the factor still runs. *)
let test_polish_fill_pinned () =
  let pf = Utility.proportional_fair () in
  let paths =
    [ [| 0; 1 |]; [| 0; 2 |]; [| 1; 3 |]; [| 1; 4 |]; [| 2; 5 |]; [| 2; 6 |];
      [| 3 |]; [| 4 |]; [| 5 |]; [| 6 |] ]
  in
  let p =
    Problem.create ~caps:(Array.make 7 1.) ~groups:(List.map (Problem.single_path pf) paths)
  in
  (* The carried prices are xWI's from its seed, as when pinned. *)
  let state = Xwi.at_seed p in
  ignore (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 p Xwi.default_params state);
  ignore (Problem.add_group p (Problem.single_path pf [| 0 |]));
  Problem.commit p;
  let steps = polish_counter "nf_xwi_polish_newton_steps_total" in
  let steps_before = Nf_util.Metrics.counter_value steps in
  let st = Xwi.resize p state in
  Alcotest.(check bool) "polished" true (Xwi.polished st);
  Alcotest.(check int) "Newton steps" 5 (Nf_util.Metrics.counter_value steps - steps_before);
  let pinned =
    [| 0x40026e056f9ab9fbL; 0x3ff3af825195a030L; 0x3ff3af825195a030L;
       0x3ff8f13c1f67d2ebL; 0x3ff8f13c1f67d2ebL; 0x3ff8f13c1f67d2eaL;
       0x3ff8f13c1f67d2eaL |]
  in
  Array.iteri
    (fun l bits ->
      check_bits (Printf.sprintf "prices.(%d)" l) (Int64.float_of_bits bits)
        st.Xwi.prices.(l))
    pinned

(* Whenever the polish succeeds, its prices are a primal-dual pair for
   the links it solved: no price is negative, and the rates they induce
   overload no link, in or out of the final active set, beyond the
   water-fill's 1e-9 relative tolerance. Driven from carried starts
   after churn on partly converged states, so the active sets it sees
   are often wrong. *)
let prop_polish_prices_feasible =
  QCheck.Test.make
    ~name:"a successful polish has prices >= 0 and overloads no link"
    ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 9000) in
      let p = random_single_path_problem rng in
      let n_links = Problem.n_links p in
      let live = ref (List.init (Problem.n_groups p) Fun.id) in
      let state = ref (Xwi.at_seed p) in
      let ws = Polish.create () in
      let ok = ref true in
      for _ = 1 to 6 do
        ignore
          (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 ~max_iters:(Rng.int rng 300) p
             Xwi.default_params !state);
        (if List.length !live <= 1 || Rng.int rng 2 = 0 then
           live :=
             Problem.add_group p
               (Problem.single_path (random_alpha_fair rng) (random_path rng ~n_links))
             :: !live
         else begin
           let victim = List.nth !live (Rng.int rng (List.length !live)) in
           Problem.remove_group p victim;
           live := List.filter (fun g -> g <> victim) !live
         end);
        Problem.commit p;
        let carried = start_at p ~prices:!state.Xwi.prices in
        let out = Array.make n_links nan in
        if
          Polish.solve ws p ~prices:carried.Xwi.prices ~carried:carried.Xwi.rates
            ~rates:(fun _ rates -> rates) ~out
        then begin
          let caps = Problem.caps p and loads = Array.make n_links 0. in
          for i = 0 to Problem.n_flows p - 1 do
            let path = Problem.flow_path p i in
            let price = Array.fold_left (fun acc l -> acc +. out.(l)) 0. path in
            let x = Utility.rate_from_price (Problem.group_utility p (Problem.flow_group p i)) price in
            Array.iter (fun l -> loads.(l) <- loads.(l) +. x) path
          done;
          Array.iteri
            (fun l c ->
              ok := !ok && out.(l) >= 0. && loads.(l) <= c *. (1. +. 1e-9 +. 1e-12))
            caps
        end;
        state := Xwi.resize p !state
      done;
      !ok)

(* Whether [st], a resize's state, is certified without an xWI step. *)
let certified_at_zero p st =
  (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 p Xwi.default_params st).Xwi.iterations = 0

(* An arrival whose bottleneck is outside the carried active set: link 1
   carried no flow, so it has no price, but the new flow's fair share of
   link 0 overloads it. The first solve, on A = {0}, succeeds; its rates
   overload link 1, which the polish adds, and the second solve is the
   optimum. *)
let test_polish_adds_overloaded_link () =
  let pf = Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 10.; 1. |]
      ~groups:[ Problem.single_path pf [| 0 |]; Problem.single_path pf [| 0 |] ]
  in
  let added = polish_counter "nf_xwi_polish_added_links_total" in
  let before = Nf_util.Metrics.counter_value added in
  let st, _ = resize_after_arrival p ~utility:pf ~paths:[ [| 0; 1 |] ] in
  Alcotest.(check bool) "polished" true (Xwi.polished st);
  Alcotest.(check int) "one link added" 1 (Nf_util.Metrics.counter_value added - before);
  check_rates ~rel:1e-9 "link 1 is the new flow's bottleneck" [| 4.5; 4.5; 1. |]
    st.Xwi.rates;
  Alcotest.(check bool) "certified at iteration 0" true (certified_at_zero p st)

(* A first solve that fails: flow 1 (links 0 and 1) is the only flow on
   link 0, and both links have capacity 1, so once flow 0 (link 0 only)
   departs, no prices fill both carried links. Newton drives link 0's
   price negative without converging; the solve ends at that step, the
   polish drops link 0 and the retry on A = {1} is the optimum, which
   the retry's proportional step reaches with no Newton step: both
   flows are then priced by link 1 alone. *)
let test_polish_retries_failed_solve () =
  let pf = Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 1.; 1. |]
      ~groups:
        [ Problem.single_path pf [| 0 |]; Problem.single_path pf [| 0; 1 |];
          Problem.single_path pf [| 1 |] ]
  in
  let state = Xwi.at_seed p in
  ignore (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 p Xwi.default_params state);
  Problem.remove_group p 0;
  Problem.commit p;
  let retries = polish_counter "nf_xwi_polish_retries_total" in
  let steps = polish_counter "nf_xwi_polish_newton_steps_total" in
  let before = Nf_util.Metrics.counter_value retries in
  let steps_before = Nf_util.Metrics.counter_value steps in
  let st = Xwi.resize p state in
  Alcotest.(check bool) "polished" true (Xwi.polished st);
  Alcotest.(check int) "one retry" 1 (Nf_util.Metrics.counter_value retries - before);
  (* Dropping link 0 only after a whole 20-step solve took 32 steps,
     and at its first negative price 5 before the proportional step. *)
  Alcotest.(check int) "Newton steps" 1 (Nf_util.Metrics.counter_value steps - steps_before);
  check_rates ~rel:1e-9 "link 1 shared" [| 0.5; 0.5 |] st.Xwi.rates;
  Alcotest.(check bool) "certified at iteration 0" true (certified_at_zero p st)

(* [Polish.solve] of [prices] on [p], where every link is priced, so
   the carried rates are never read; returns (success, polished prices,
   Newton steps taken). *)
let polish_at p prices =
  let steps = polish_counter "nf_xwi_polish_newton_steps_total" in
  let before = Nf_util.Metrics.counter_value steps in
  let out = Array.make (Problem.n_links p) nan in
  let ok =
    Polish.solve (Polish.create ()) p ~prices ~carried:()
      ~rates:(fun _ () -> Alcotest.fail "carried rates read")
      ~out
  in
  (ok, out, Nf_util.Metrics.counter_value steps - before)

(* The proportional step is exact where a link's flows cross no other
   priced link: alpha-fair flows x_i = w_i P^(-1/alpha) alone on a link
   of capacity c fill it at P = (Σ w_i / c)^alpha. From carried prices 4
   and 0.25 times that, on a Log-only problem and on one whose links
   carry Log, alpha = 0.5 and alpha = 2 flows, the polish succeeds
   without a Newton step at the closed form. *)
let test_polish_single_link_exact () =
  let caps = [| 10.; 4.; 25. |] in
  let weights = [| [| 1.; 3. |]; [| 0.5; 2. |]; [| 7.; 1.5 |] |] in
  List.iter
    (fun (what, alphas) ->
      let p =
        Problem.create ~caps
          ~groups:
            (List.concat
               (List.init 3 (fun l ->
                    Array.to_list
                      (Array.map
                         (fun weight ->
                           Problem.single_path
                             (Utility.alpha_fair ~weight ~alpha:alphas.(l) ())
                             [| l |])
                         weights.(l)))))
      in
      let exact =
        Array.init 3 (fun l ->
            (Array.fold_left ( +. ) 0. weights.(l) /. caps.(l)) ** alphas.(l))
      in
      List.iter
        (fun scale ->
          let ok, out, steps = polish_at p (Array.map (fun e -> e *. scale) exact) in
          let what = Printf.sprintf "%s, carried x%g" what scale in
          Alcotest.(check bool) (what ^ ": polished") true ok;
          Alcotest.(check int) (what ^ ": no Newton step") 0 steps;
          Array.iteri
            (fun l e ->
              if not (Float.abs (out.(l) -. e) <= 1e-12 *. e) then
                Alcotest.failf "%s: link %d price %.17g, closed form %.17g" what l
                  out.(l) e)
            exact)
        [ 4.; 0.25 ])
    [ ("Log only", [| 1.; 1.; 1. |]); ("alpha 1, 0.5, 2", [| 1.; 0.5; 2. |]) ]

(* A link whose flows mix alpha keeps its price through the step: one
   Log and one alpha = 2 flow alone on a link, carried at 4 times the
   optimum. The step leaves the trial equal to the carried price, so its
   merit does not fall and Newton starts from the carried price: the
   polish takes exactly the steps of the scalar damped Newton below
   (D = Σ x_i / (alpha_i P), the same ridge, line search and stopping
   test), and reaches the optimum. *)
let test_polish_mixed_alpha_keeps_price () =
  let cap = 10. and w_log = 2. and w_pow = 3. in
  let p =
    Problem.create ~caps:[| cap |]
      ~groups:
        [ Problem.single_path (Utility.alpha_fair ~weight:w_log ~alpha:1. ()) [| 0 |];
          Problem.single_path (Utility.alpha_fair ~weight:w_pow ~alpha:2. ()) [| 0 |] ]
  in
  (* w_log / P + w_pow P^(-1/2) = cap: a quadratic in s = P^(-1/2). *)
  let s = (-.w_pow +. sqrt ((w_pow *. w_pow) +. (4. *. w_log *. cap))) /. (2. *. w_log) in
  let optimum = 1. /. (s *. s) in
  let residual price = (w_log /. price) +. (w_pow /. sqrt price) -. cap in
  let merit price = (residual price /. cap) ** 2. in
  let newton_steps =
    let price = ref (4. *. optimum) and n = ref 0 in
    while Float.abs (residual !price) /. cap > 1e-12 do
      incr n;
      let d = ((w_log /. !price) +. (w_pow /. sqrt !price /. 2.)) /. !price in
      let dir = residual !price /. (d *. (1. +. 1e-8)) in
      let t = ref 1. in
      let trial () = !price +. (!t *. dir) in
      while
        not (trial () > 0. && merit (trial ()) <= (1. -. (2e-4 *. !t)) *. merit !price)
      do
        t := !t *. 0.5
      done;
      price := trial ()
    done;
    !n
  in
  let ok, out, steps = polish_at p [| 4. *. optimum |] in
  Alcotest.(check bool) "polished" true ok;
  Alcotest.(check bool) "the scalar Newton takes steps" true (newton_steps > 0);
  Alcotest.(check int) "Newton steps from the carried price" newton_steps steps;
  check_close ~rel:1e-12 "optimum" optimum out.(0)

(* A singular M: flows 0 and 1 each cross a link of capacity 1 of
   their own and share link 2 (capacity 10), so raising links 0 and 1
   and lowering link 2 alike moves no path price. From carried prices
   (0.5, 0.5, 0.05) the ridged Newton step runs along that direction and
   no halving lowers the merit. The failed solve prices link 2 where the
   full step takes it, below zero, and the retry without it is the
   optimum: both flows at 1, link 2 slack and unpriced. *)
let test_polish_singular_drops_link () =
  let pf = Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 1.; 1.; 10. |]
      ~groups:[ Problem.single_path pf [| 0; 2 |]; Problem.single_path pf [| 1; 2 |] ]
  in
  let retries = polish_counter "nf_xwi_polish_retries_total" in
  let before = Nf_util.Metrics.counter_value retries in
  let ok, out, _ = polish_at p [| 0.5; 0.5; 0.05 |] in
  Alcotest.(check bool) "polished" true ok;
  Alcotest.(check int) "one retry" 1 (Nf_util.Metrics.counter_value retries - before);
  check_rates ~rel:1e-12 "links 0 and 1 at price 1" [| 1.; 1. |] [| out.(0); out.(1) |];
  check_bits "link 2 unpriced" 0. out.(2)

(* An eligible problem whose polish fails keeps the carried start bit
   for bit. 300 flows each alone on a link of their own: the seed prices
   all 300 links alike, so the first active set holds 300 distinct
   links, above the polish's cap of 256. Covered, the new flow crosses a
   priced link, and the carried prices are water-filled only once the
   polish has failed; uncovered, it crosses only an unpriced link, so the
   polish asks for the carried rates first and fails after. *)
let test_polish_over_cap_keeps_carried () =
  let pf = Utility.proportional_fair () in
  let n = 300 in
  let carried_starts = polish_counter "nf_xwi_carried_starts_total" in
  List.iter
    (fun (what, path) ->
      let p =
        Problem.create ~caps:(Array.make (n + 1) 1.)
          ~groups:(List.init n (fun l -> Problem.single_path pf [| l |]))
      in
      let state = Xwi.at_seed p in
      ignore (Problem.add_group p (Problem.single_path pf path));
      Problem.commit p;
      let carried = start_at p ~prices:state.Xwi.prices in
      let before = Nf_util.Metrics.counter_value carried_starts in
      let st = Xwi.resize p state in
      Alcotest.(check bool) (what ^ ": carried start") false (Xwi.polished st);
      Alcotest.(check int) (what ^ ": counted carried") 1
        (Nf_util.Metrics.counter_value carried_starts - before);
      check_same_state what carried st)
    [ ("covered", [| 0 |]); ("uncovered", [| n |]) ]

(* The cold start over [exp random]'s single-path instances (3-10 links
   of 1-10 G, 3-14 flows on 1-4 distinct links, alpha-fair utilities of
   weight 0.25-4): [init] is either polished and certified without an
   xWI step, or the seed-only start bit for bit. On these seeds every
   instance polishes, so the second branch is not reached here; the
   hand-built failed polish below covers it. *)
let prop_cold_start_polished_or_seed =
  QCheck.Test.make
    ~name:"init is a certified polish or the seed-only start bit for bit"
    ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 11_000) in
      let alpha = [| 0.25; 0.5; 1.; 2.; 4. |].(Rng.int rng 5) in
      let n_links = 3 + Rng.int rng 8 in
      let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1e9 ~hi:1e10) in
      let p =
        Problem.create ~caps
          ~groups:
            (List.init
               (3 + Rng.int rng 12)
               (fun _ ->
                 let weight = Rng.uniform rng ~lo:0.25 ~hi:4. in
                 let len = 1 + Rng.int rng (min 4 n_links) in
                 Problem.single_path
                   (Utility.alpha_fair ~weight ~alpha ())
                   (Array.sub (Rng.permutation rng n_links) 0 len)))
      in
      let st = Xwi.init p in
      if Xwi.polished st then begin
        let run = Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 p Xwi.default_params st in
        run.Xwi.iterations = 0 && Kkt.worst run.Xwi.kkt <= 1e-6
      end
      else begin
        check_same_state "seed start" (Xwi.at_seed p) st;
        true
      end)

(* More busy links than the polish's dense factor holds: [init] skips
   the polish, without a Newton step, and is the seed-only start bit for
   bit. One link of capacity 1 is every flow's bottleneck, so the polish
   from zero prices would solve on that link alone; each of the 300
   flows also crosses a wide link of its own. *)
let test_cold_start_skips_past_max_active () =
  let pf = Utility.proportional_fair () in
  let n = Polish.max_active + 44 in
  let p =
    Problem.create
      ~caps:(Array.init (n + 1) (fun l -> if l = 0 then 1. else 100.))
      ~groups:(List.init n (fun i -> Problem.single_path pf [| 0; i + 1 |]))
  in
  let steps = polish_counter "nf_xwi_polish_newton_steps_total" in
  let cold_seed = polish_counter "nf_xwi_cold_seed_starts_total" in
  let steps_before = Nf_util.Metrics.counter_value steps in
  let seed_before = Nf_util.Metrics.counter_value cold_seed in
  let st = Xwi.init p in
  Alcotest.(check bool) "seed start" false (Xwi.polished st);
  Alcotest.(check int) "no Newton step" 0
    (Nf_util.Metrics.counter_value steps - steps_before);
  Alcotest.(check int) "counted a seed start" 1
    (Nf_util.Metrics.counter_value cold_seed - seed_before);
  check_same_state "past the cap" (Xwi.at_seed p) st;
  (* Under the cap, the same bottleneck is polished and certified. *)
  let small =
    Problem.create
      ~caps:(Array.init 11 (fun l -> if l = 0 then 1. else 100.))
      ~groups:(List.init 10 (fun i -> Problem.single_path pf [| 0; i + 1 |]))
  in
  let st = Xwi.init small in
  Alcotest.(check bool) "polished under the cap" true (Xwi.polished st);
  Alcotest.(check bool) "certified at iteration 0" true (certified_at_zero small st);
  check_rates ~rel:1e-12 "one tenth each" (Array.make 10 0.1) st.Xwi.rates

(* An eligible cold start under the cap whose polish runs and fails
   keeps the seed-only start bit for bit. Flow 0 crosses links 0 and 1,
   flow 1 link 0 alone, both alpha = 4 with weights 10 and 0.01: at the
   optimum link 1 holds flow 0 to 2 at a path price of 625, and flow 1's
   8 on link 0 takes a price near 2.4e-12. The polish solves on link 0,
   adds link 1, and its Newton steps cannot walk link 0's price down
   those twelve decades within a solve's 20 steps. *)
let test_cold_start_failed_polish_keeps_seed () =
  let p =
    Problem.create ~caps:[| 10.; 2. |]
      ~groups:
        [ Problem.single_path (Utility.alpha_fair ~weight:10. ~alpha:4. ()) [| 0; 1 |];
          Problem.single_path (Utility.alpha_fair ~weight:0.01 ~alpha:4. ()) [| 0 |] ]
  in
  let steps = polish_counter "nf_xwi_polish_newton_steps_total" in
  let cold_seed = polish_counter "nf_xwi_cold_seed_starts_total" in
  let steps_before = Nf_util.Metrics.counter_value steps in
  let seed_before = Nf_util.Metrics.counter_value cold_seed in
  let st = Xwi.init p in
  Alcotest.(check bool) "seed start" false (Xwi.polished st);
  Alcotest.(check bool) "the polish ran Newton steps" true
    (Nf_util.Metrics.counter_value steps - steps_before > 0);
  Alcotest.(check int) "counted a seed start" 1
    (Nf_util.Metrics.counter_value cold_seed - seed_before);
  check_same_state "failed polish" (Xwi.at_seed p) st

(* [resize] hands the old state's buffers and its price array to the
   new one: the old state can no longer step, nor be resized again. Its
   rates and weights stay; its prices are the new state's. *)
let test_resize_consumes () =
  let u = Utility.proportional_fair () in
  let p = single_link_problem ~cap:10. [ u; u ] in
  let old = Xwi.init p in
  ignore (Xwi.run_until_kkt ~tol:1e-9 ~check_every:1 p Xwi.default_params old);
  let rates = Array.copy old.Xwi.rates and weights = Array.copy old.Xwi.weights in
  ignore (Problem.add_group p (Problem.single_path u [| 0 |]));
  Problem.commit p;
  let fresh = Xwi.resize p old in
  Alcotest.check_raises "step on a consumed state"
    (Invalid_argument "Xwi_core.step: state consumed by Xwi_core.resize")
    (fun () -> Xwi.step p Xwi.default_params old);
  Alcotest.check_raises "resize of a consumed state"
    (Invalid_argument "Xwi_core.resize: state already consumed by a resize")
    (fun () -> ignore (Xwi.resize p old));
  Alcotest.(check bool) "prices handed down" true (old.Xwi.prices == fresh.Xwi.prices);
  Array.iteri (fun i v -> check_bits (Printf.sprintf "old rates.(%d)" i) v rates.(i))
    old.Xwi.rates;
  Array.iteri (fun i v -> check_bits (Printf.sprintf "old weights.(%d)" i) v weights.(i))
    old.Xwi.weights;
  Xwi.step p Xwi.default_params fresh;
  Alcotest.(check int) "the new state steps" 3 (Array.length fresh.Xwi.rates)

let prop_handed_down_resize_bit_identical =
  QCheck.Test.make
    ~name:"resize through handed-down buffers equals resize of a fresh state"
    ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 8000) in
      let p = random_single_path_problem rng in
      let n_links = Problem.n_links p in
      let live = ref (List.init (Problem.n_groups p) Fun.id) in
      let state = ref (Xwi.at_seed p) in
      let ok = ref true in
      for _ = 1 to 8 do
        (if List.length !live <= 1 || Rng.int rng 3 > 0 then
           live :=
             Problem.add_group p
               (Problem.single_path (random_alpha_fair rng) (random_path rng ~n_links))
             :: !live
         else begin
           let victim = List.nth !live (Rng.int rng (List.length !live)) in
           Problem.remove_group p victim;
           live := List.filter (fun g -> g <> victim) !live
         end);
        Problem.commit p;
        (* The same prices in a state with buffers of its own. *)
        let fresh = Xwi.resize p (start_at p ~prices:!state.Xwi.prices) in
        state := Xwi.resize p !state;
        let same a b =
          Array.length a = Array.length b
          && Array.for_all2
               (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
               a b
        in
        ok :=
          !ok
          && Bool.equal (Xwi.polished fresh) (Xwi.polished !state)
          && same fresh.Xwi.prices !state.Xwi.prices
          && same fresh.Xwi.rates !state.Xwi.rates
          && same fresh.Xwi.weights !state.Xwi.weights;
        (* Move the prices on, so the next polish sees another active set. *)
        ignore
          (Xwi.run_until_kkt ~tol:1e-6 ~check_every:1 ~max_iters:(Rng.int rng 200) p
             Xwi.default_params !state)
      done;
      !ok)

(* [exp churn]'s full-scale scenario (100 standing flows on the paper's
   leaf-spine): every single arrival is certified by the polished start
   alone. *)
let test_churn_polished_epochs () =
  let t =
    Nf_experiments.(Exp_churn.run (Ctx.make ~scale:1. ~seed:0))
  in
  let zero =
    List.length
      (List.filter (fun e -> e.Nf_experiments.Exp_churn.warm_iters = 0) t.events)
  in
  Alcotest.(check int) "ten arrivals" 10 (List.length t.events);
  Alcotest.(check int) "epochs that take 0 iterations" 10 zero

(* ------------------------------------------------------------------ *)
(* Float min/max, sparse solve statistics, and solver diagnostics *)

module Diag = Nf_num.Diag
module Metrics = Nf_util.Metrics
module Trace = Nf_util.Trace

let test_utility_closed_forms_bitwise () =
  (* The one evaluator of U' and U'^-1 must equal Table 1's closed forms
     bit for bit, with the 1e-12 rate floor, the 1e-300 price floor and
     the 1e300 rate cap, on every special input: the determinism guarantee
     (-j N byte-identical to -j 1, pinned reports) rests on every caller
     computing the same bits. An [Opaque] utility built from the same
     formulas goes through its closures and must agree too. *)
  let cap r = if Float.is_finite r then Float.min r 1e300 else 1e300 in
  let log_deriv w x = w /. Float.max x 1e-12 in
  let log_rate w p = cap (w /. Float.max p 1e-300) in
  let power_deriv w a x = (w ** a) *. (Float.max x 1e-12 ** -.a) in
  let power_rate w a p = cap (w *. (Float.max p 1e-300 ** (-1. /. a))) in
  let fct_w = 1e6 ** (-1. /. 0.125) in
  let cases =
    [
      ("log", Utility.proportional_fair (), log_deriv 1., log_rate 1.);
      ("log w=3.5", Utility.alpha_fair ~weight:3.5 ~alpha:1. (), log_deriv 3.5, log_rate 3.5);
      ("power a=2", Utility.alpha_fair ~weight:2. ~alpha:2. (), power_deriv 2. 2., power_rate 2. 2.);
      ( "power a=0.5",
        Utility.alpha_fair ~weight:0.25 ~alpha:0.5 (),
        power_deriv 0.25 0.5,
        power_rate 0.25 0.5 );
      ("fct", Utility.fct ~size:1e6 ~eps:0.125, power_deriv fct_w 0.125, power_rate fct_w 0.125);
      ( "opaque a=2",
        Utility.make ~deriv:(power_deriv 2. 2.) ~inv_deriv:(fun p -> 2. *. (p ** (-1. /. 2.))),
        power_deriv 2. 2.,
        power_rate 2. 2. );
    ]
  in
  let points =
    [ 0.; 1e-30; 1e-9; 0.5; 1.; 3.25; 1e9; 1e300; nan; -0.; infinity;
      neg_infinity ]
  in
  List.iter
    (fun (name, u, deriv, rate) ->
      List.iter
        (fun x ->
          let what f = Printf.sprintf "%s: %s(%g)" name f x in
          check_bits (what "deriv") (deriv x) (Utility.deriv u x);
          check_bits (what "rate_from_price") (rate x) (Utility.rate_from_price u x))
        points)
    cases

let test_fmax_fmin_match_stdlib () =
  (* The hot loops' comparison-only min/max must be Float.max/Float.min
     on every pair of special values: signed zeros, infinities,
     subnormals, NaNs of both signs. *)
  let values =
    [ 0.; -0.; 1.; -1.; 0.5; -2.5; infinity; neg_infinity; nan; -.nan;
      Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
      Float.max_float; -.Float.max_float; 1e-30 ]
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

let test_maxmin_sparse_stats () =
  (* Parking lot: one long flow over both links, one short per link. Both
     links saturate; stats from the last solve must reflect that. *)
  let caps = [| 1.; 1. |] in
  let paths = [| [| 0; 1 |]; [| 0 |]; [| 1 |] |] in
  let inc =
    Incidence.create ~caps ~paths ~group_of_flow:[| 0; 1; 2 |] ~n_groups:3
  in
  let weights = Incidence.vec_of_array [| 1.; 1.; 1. |] in
  let rates = Incidence.vec 3 in
  let ws = Maxmin.sparse_workspace inc in
  Maxmin.solve_sparse ws inc ~weights ~rates;
  Alcotest.(check bool) "rounds >= 1" true (Maxmin.sparse_rounds ws >= 1);
  Alcotest.(check int) "both links saturated" 2
    (Maxmin.sparse_saturated_links ws);
  Alcotest.(check bool) "final level positive" true
    (Maxmin.sparse_level ws > 0.)

(* Two single-flow links, one of capacity 1 and one [gap] above it: the
   round that saturates the first also saturates the second iff the gap
   is inside the 1e-9 tolerance. *)
let test_maxmin_sparse_tolerance_round () =
  let solve gap =
    let inc =
      Incidence.create ~caps:[| 1.; 1. +. gap |] ~paths:[| [| 0 |]; [| 1 |] |]
        ~group_of_flow:[| 0; 1 |] ~n_groups:2
    in
    let ws = Maxmin.sparse_workspace inc and rates = Incidence.vec 2 in
    Maxmin.solve_sparse ws inc ~weights:[| 1.; 1. |] ~rates;
    (Maxmin.sparse_rounds ws, Maxmin.sparse_saturated_links ws, rates.(1))
  in
  let rounds, saturated, rate = solve 1e-10 in
  Alcotest.(check int) "1e-10 apart: one round" 1 rounds;
  Alcotest.(check int) "1e-10 apart: both links saturate" 2 saturated;
  Alcotest.(check (float 0.)) "1e-10 apart: frozen at the first level" 1. rate;
  let rounds, saturated, rate = solve 1e-8 in
  Alcotest.(check int) "1e-8 apart: two rounds" 2 rounds;
  Alcotest.(check int) "1e-8 apart: both links saturate" 2 saturated;
  Alcotest.(check (float 0.)) "1e-8 apart: frozen at its own level"
    (1. +. 1e-8) rate

(* The workspace caches only structure. After [set_cap], a solve on a
   used workspace gives the bits of a fresh one. The new capacity puts
   link 1's level 1.5e-9 relative above link 0's, so the tolerance
   (1e-9 of the new capacity, 2e-9 of the old) decides the rounds. *)
let test_maxmin_sparse_set_cap () =
  let u = Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 1.; 2. |]
      ~groups:
        [
          Problem.single_path u [| 0 |];
          Problem.single_path u [| 1 |];
          Problem.single_path u [| 0; 1 |];
        ]
  in
  let inc = Problem.incidence p and weights = [| 1.; 1.; 1. |] in
  let solve ws =
    let rates = Incidence.vec 3 in
    Maxmin.solve_sparse ws inc ~weights ~rates;
    (rates, Maxmin.sparse_rounds ws)
  in
  let ws = Maxmin.sparse_workspace inc in
  let before, _ = solve ws in
  Problem.set_cap p 1 (1. +. 1.5e-9);
  let reused, reused_rounds = solve ws in
  let fresh, fresh_rounds = solve (Maxmin.sparse_workspace inc) in
  Alcotest.(check bool) "the new capacity moves the rates" false
    (bits_equal before reused);
  Alcotest.(check int) "rounds as a fresh workspace" fresh_rounds reused_rounds;
  Alcotest.(check int) "link 1 outside the tolerance: two rounds" 2
    reused_rounds;
  Alcotest.(check bool) "rates as a fresh workspace" true
    (bits_equal fresh reused)

(* Bit-exact pins of [solve_sparse]: rounds, saturated links, final
   level and rates, floats as [%h] hex. The saturated links of a round
   freeze, and their flows retire, in ascending link order; any other
   order changes the roundings, so the scan's storage order must never
   leak into the output. *)
let sparse_fingerprint inc weights =
  let ws = Maxmin.sparse_workspace inc in
  let rates = Incidence.vec inc.Incidence.n_flows in
  Maxmin.solve_sparse ws inc ~weights ~rates;
  Printf.sprintf "rounds %d" (Maxmin.sparse_rounds ws)
  :: Printf.sprintf "saturated %d" (Maxmin.sparse_saturated_links ws)
  :: Printf.sprintf "level %h" (Maxmin.sparse_level ws)
  :: Array.to_list (Array.map (Printf.sprintf "%h") rates)

let sparse_incidence ~caps paths =
  let n = Array.length paths in
  Incidence.create ~caps ~paths ~group_of_flow:(Array.init n Fun.id) ~n_groups:n

(* Forty ECMP-routed flows on a k=4 fat tree (96 links), weights
   10^U(-30, 300): heavy retirements cancel active-weight sums, so the
   fill recounts links between rounds. *)
let test_maxmin_sparse_pinned_fat_tree () =
  let ft = Nf_topo.Builders.fat_tree ~k:4 () in
  let topo = ft.Nf_topo.Builders.ft_topo
  and servers = ft.Nf_topo.Builders.ft_servers in
  let router = Nf_topo.Routing.router topo in
  let caps =
    Array.map (fun l -> l.Nf_topo.Topology.capacity) (Nf_topo.Topology.links topo)
  in
  let rng = Rng.create ~seed:21 in
  let paths =
    Array.init 40 (fun i ->
        let src = Rng.pick rng servers in
        let dst = ref (Rng.pick rng servers) in
        while !dst = src do
          dst := Rng.pick rng servers
        done;
        Array.of_list
          (Nf_topo.Routing.ecmp_path_fast router ~src ~dst:!dst
             ~hash:(i * 2654435761)))
  in
  let weights =
    Array.init 40 (fun _ -> 10. ** Rng.uniform rng ~lo:(-30.) ~hi:300.)
  in
  Alcotest.(check (list string)) "fat tree, weights 1e-30..1e300"
    [
      "rounds 7"; "saturated 38"; "level 0x1.517992fd93915p-166";
      "0x1.2a05f2p+33"; "0x1.08585577bdcf9p-205"; "0x1.b593f70e2c849p-845";
      "0x1.2a05f1ffc2cadp+33"; "0x1.2a05f2p+33"; "0x1.1c65846c00fabp-845";
      "0x1.2a05f2p+33"; "0x1.c3b2c5f45e0dap-548"; "0x1.8f68a4c9ffc0bp-874";
      "0x1.6271431de5869p-889"; "0x1.1a143f33d4935p-507";
      "0x1.8a20534beaf06p-416"; "0x1.2a05f1ffc2cadp+33";
      "0x1.139164c761bcfp-771"; "0x1.6922c6992d798p-236";
      "0x1.f70469996f119p-915"; "0x1.a7862b01e1a3ap-132";
      "0x1.f64916dec8a36p-29"; "0x1.8fae319d949a4p-871";
      "0x1.60f21143fc54ap-89"; "0x1.d45835df73851p-383";
      "0x1.217af99479759p-576"; "0x1.0fd60c9e06f89p-548";
      "0x1.6da3d7563acd4p-510"; "0x1.1498ccfd33121p-338";
      "0x1.248ce9dacd0ap-523"; "0x1.1a1bc6fcc1f99p-649"; "0x1.2a05f2p+33";
      "0x1.1a70e4cbf5629p-261"; "0x1.cd031b09aa043p-507";
      "0x1.e9a97545f133ap-2"; "0x1.2a05f2p+33"; "0x1.428c452e8700cp-1018";
      "0x1.9eec7a05b4a9ap-118"; "0x1.108487f5506c2p-264";
      "0x1.85303e395765dp-48"; "0x1.90d63f2168834p-93";
      "0x1.f59300a002e27p-237"; "0x1.9dda858b88726p-317";
      "0x1.a69e6d8d592fbp-601"
    ]
    (sparse_fingerprint (sparse_incidence ~caps paths) weights)

(* Links 1 and 3 tie at level 2 in round 2, and flow 4 crosses the
   higher id first. Round 1 drains link 0, so a scan in storage order
   could meet link 3 before link 1; freezing link 1's flows first is
   what fixes the order in which flows 1 and 2 leave link 2, and so the
   bits of flow 3's rate. *)
let test_maxmin_sparse_pinned_tie () =
  let wb = 0.1 and wc = 0.2 and wd = 0.7 and we = 0.1 in
  let caps = [| 1.; 2. *. (wb +. we); 10.; 2. *. (wc +. we) |] in
  let paths = [| [| 0 |]; [| 1; 2 |]; [| 3; 2 |]; [| 2 |]; [| 3; 1 |] |] in
  Alcotest.(check (list string)) "tie at level 2"
    [
      "rounds 3"; "saturated 4"; "level 0x1.adb6db6db6db8p+3"; "0x1p+0";
      "0x1.999999999999ap-3"; "0x1.999999999999ap-2"; "0x1.2cccccccccccdp+3";
      "0x1.999999999999ap-3"
    ]
    (sparse_fingerprint (sparse_incidence ~caps paths) [| 1.; wb; wc; wd; we |])

(* Round 1 saturates links 0 and 1. Retiring flow 0 cancels link 2's
   active weight from 1e10+1 to 1, which queues it for a recount; then
   retiring flow 1 drains it within the same round. The recount must
   leave the drained link alone: links 3-5 still carry flows. *)
let test_maxmin_sparse_pinned_drained_recount () =
  let caps = [| 1e10; 1.; 1e12; 3.; 4.; 5. |] in
  let paths = [| [| 0; 2 |]; [| 2; 1 |]; [| 3 |]; [| 4 |]; [| 5 |] |] in
  Alcotest.(check (list string)) "queued link drains in its round"
    [
      "rounds 4"; "saturated 5"; "level 0x1.4p+2"; "0x1.2a05f2p+33";
      "0x1p+0"; "0x1.8p+1"; "0x1p+2"; "0x1.4p+2"
    ]
    (sparse_fingerprint (sparse_incidence ~caps paths) [| 1e10; 1.; 1.; 1.; 1. |])

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let diag_problem () =
  (* Two-link parking lot with proportional fairness: from the seed
     ([Xwi.at_seed]) it converges in tens of iterations at the default
     tolerance, never in three. *)
  let caps = [| 1.; 1. |] in
  let groups =
    [
      Problem.single_path (Utility.proportional_fair ()) [| 0; 1 |];
      Problem.single_path (Utility.proportional_fair ()) [| 0 |];
      Problem.single_path (Utility.proportional_fair ()) [| 1 |];
    ]
  in
  Problem.create ~caps ~groups

let temp_dir () =
  let f = Filename.temp_file "nf_diag_test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* What [--diag] observes, read back from the postmortem a capped run
   writes: the meta line, the ring of the last 64 iteration samples, the
   worst links and the iterations-to-ε report. A negative KKT tolerance
   is never met (the problem reaches a residual of exactly 0 after 52
   iterations), so the run takes all 100 and the ring wraps. *)
let test_diag_observe_and_report () =
  let dir = temp_dir () in
  Diag.configure (Some dir);
  let run =
    Fun.protect
      ~finally:(fun () -> Diag.configure None)
      (fun () ->
        let p = diag_problem () in
        Xwi.run_until_kkt ~tol:(-1.) ~check_every:1 ~max_iters:100 p
          Xwi.default_params (Xwi.at_seed p))
  in
  Alcotest.(check bool) "capped" false run.Xwi.converged;
  Alcotest.(check int) "ran to the cap" 100 run.Xwi.iterations;
  let lines =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match Nf_util.Json.parse l with
          | Ok j -> Some j
          | Error e -> Alcotest.failf "postmortem line %S: %s" l e)
      (String.split_on_char '\n'
         (read_file (Filename.concat dir "xwi_postmortem_0000.jsonl")))
  in
  remove_dir dir;
  let module J = Nf_util.Json in
  let of_kind k = List.filter (fun j -> J.obj_str "kind" j = Some k) lines in
  let int_of what j key =
    match J.obj_int key j with
    | Some i -> i
    | None -> Alcotest.failf "%s: no integer %s" what key
  in
  let float_of what j key =
    match J.obj_float key j with
    | Some f -> f
    | None -> Alcotest.failf "%s: no number %s" what key
  in
  (match of_kind "meta" with
  | [ meta ] ->
    Alcotest.(check (option bool)) "meta: not converged" (Some false)
      (match J.member "converged" meta with Some (J.Bool b) -> Some b | _ -> None);
    Alcotest.(check int) "meta: every iteration observed" run.Xwi.iterations
      (int_of "meta" meta "iterations");
    Alcotest.(check int) "meta: links" 2 (int_of "meta" meta "n_links");
    Alcotest.(check int) "meta: flows" 3 (int_of "meta" meta "n_flows")
  | l -> Alcotest.failf "expected one meta line, got %d" (List.length l));
  let samples = of_kind "iter" in
  Alcotest.(check int) "ring holds the last 64 samples" 64 (List.length samples);
  List.iter
    (fun s ->
      let residual = float_of "iter" s "residual" in
      Alcotest.(check bool) "residual finite and non-negative" true
        (residual >= 0. && Float.is_finite residual);
      Alcotest.(check bool) "wf rounds positive" true
        (int_of "iter" s "waterfill_rounds" >= 1);
      let saturated = int_of "iter" s "saturated_links" in
      Alcotest.(check bool) "saturated links in range" true
        (saturated >= 0 && saturated <= 2))
    samples;
  Alcotest.(check (list int)) "samples oldest-first, the run's last 64"
    (List.init 64 (fun i -> run.Xwi.iterations - 63 + i))
    (List.map (fun s -> int_of "iter" s "iter") samples);
  (match of_kind "worst_links" with
  | [ w ] ->
    List.iter
      (fun pair ->
        match J.to_list pair with
        | Some [ l; d ] ->
          let l = Option.get (J.to_int l) and d = Option.get (J.to_float d) in
          Alcotest.(check bool) "worst link id in range" true (l >= 0 && l < 2);
          Alcotest.(check bool) "worst link delta non-negative" true (d >= 0.)
        | _ -> Alcotest.fail "worst link is not a [link, delta] pair")
      (Option.value ~default:[] (Option.bind (J.member "links" w) J.to_list))
  | l -> Alcotest.failf "expected one worst_links line, got %d" (List.length l));
  match List.map (J.member "report") (of_kind "to_eps") with
  | [ Some r ] ->
    Alcotest.(check int) "report iterations" run.Xwi.iterations
      (int_of "report" r "iterations");
    let ladder =
      List.map
        (fun pair ->
          match J.to_list pair with
          | Some [ eps; it ] -> (Option.get (J.to_float eps), Option.get (J.to_int it))
          | _ -> Alcotest.fail "to_eps entry is not an [eps, iteration] pair")
        (Option.value ~default:[] (Option.bind (J.member "to_eps" r) J.to_list))
    in
    Alcotest.(check int) "five thresholds" 5 (List.length ladder);
    (* The ε ladder tightens left to right, so first-hit iterations must
       be non-decreasing (ignoring never-reached entries). *)
    ignore
      (List.fold_left
         (fun prev (eps, it) ->
           if it < 0 then prev
           else begin
             Alcotest.(check bool)
               (Printf.sprintf "eps %g reached no earlier than looser eps" eps)
               true (it >= prev);
             it
           end)
         0 ladder
        : int);
    Alcotest.(check bool) "tightest eps reached" true
      (snd (List.nth ladder 4) >= 1)
  | _ -> Alcotest.fail "expected one to_eps line with a report"

let test_diag_postmortem_on_nonconvergence () =
  let dir = temp_dir () in
  let sink = Trace.make ~kinds:[ Trace.XwiNonconverged ] () in
  let saved = Trace.default () in
  Trace.set_default sink;
  Diag.configure (Some dir);
  let nonconverged =
    Metrics.counter Metrics.global "nf_xwi_nonconverged_total"
  in
  let before = Metrics.counter_value nonconverged in
  Fun.protect
    ~finally:(fun () ->
      Diag.configure None;
      Trace.set_default saved)
    (fun () ->
      let p = diag_problem () in
      let state = Xwi.at_seed p in
      Alcotest.(check bool) "diag auto-attached under config" true
        (Option.is_some state.Xwi.diag);
      let run = Xwi.run_until_kkt ~max_iters:3 p Xwi.default_params state in
      Alcotest.(check bool) "capped run did not converge" false
        run.Xwi.converged;
      Alcotest.(check int) "nonconverged counter incremented" (before + 1)
        (Metrics.counter_value nonconverged);
      Alcotest.(check int) "one postmortem written" 1
        (Diag.postmortems_written ());
      Alcotest.(check bool) "XwiNonconverged trace event emitted" true
        (List.exists
           (fun e -> e.Trace.kind = Trace.XwiNonconverged)
           (Trace.events sink));
      let path = Filename.concat dir "xwi_postmortem_0000.jsonl" in
      Alcotest.(check bool) "postmortem file exists" true
        (Sys.file_exists path);
      let contents = read_file path in
      Alcotest.(check bool) "postmortem says non-converged" true
        (contains ~needle:"\"converged\":false" contents);
      Alcotest.(check bool) "postmortem names worst links" true
        (contains ~needle:"\"kind\":\"worst_links\"" contents);
      Alcotest.(check bool) "postmortem carries iteration samples" true
        (contains ~needle:"\"kind\":\"iter\"" contents);
      (* Two residuals, two names: the meta line carries the KKT worst
         the run stopped on, the to_eps report the last step's relative
         price/rate change. *)
      let module J = Nf_util.Json in
      let line kind =
        match
          List.find_map
            (fun l ->
              match J.parse l with
              | Ok j when J.obj_str "kind" j = Some kind -> Some j
              | Ok _ | Error _ -> None)
            (String.split_on_char '\n' contents)
        with
        | Some j -> j
        | None -> Alcotest.failf "postmortem has no %s line" kind
      in
      Alcotest.(check (option (float 0.))) "meta residual is the KKT worst"
        (Some (Nf_num.Kkt.worst run.Xwi.kkt))
        (J.obj_float "final_residual" (line "meta"));
      let report = Option.get (J.member "report" (line "to_eps")) in
      Alcotest.(check bool) "report names the step change" true
        (Option.is_some (J.obj_float "final_step_change" report));
      Alcotest.(check bool) "report has no final_residual" true
        (Option.is_none (J.member "final_residual" report)));
  remove_dir dir;
  (* A second configure resets the sequence counter. *)
  Alcotest.(check int) "configure resets counter" 0
    (Diag.postmortems_written ())

(* ------------------------------------------------------------------ *)
(* The link price laws at each clamp edge, bit for bit *)

module Law = Nf_num.Price_law

(* Eqs. 10-11 through the packet port, the entry the engines use; the
   solver's step runs the same inline law. Table 2: eta 5, beta 0.5. *)
let test_xwi_law_edges () =
  let law ~price ~min_residual ~utilization =
    let port = { Xwi.price; min_residual; utilization } in
    Xwi.port_update Xwi.default_params port;
    port.Xwi.price
  in
  List.iter
    (fun (what, expected, price, min_residual, utilization) ->
      check_bits what expected (law ~price ~min_residual ~utilization))
    [
      (* p' = [1e-9 - 5 (1 - 0) 1e-9]+ = 0, averaged with 1e-9. *)
      ("idle, residual +inf", 5e-10, 1e-9, infinity, 0.);
      ("idle, residual nan", 5e-10, 1e-9, Float.nan, 0.);
      ("idle, residual -inf", 5e-10, 1e-9, neg_infinity, 0.);
      (* u = 3 counts as 1: p' = 1 + 0.5, averaged with 1. *)
      ("utilization above 1", 1.25, 1., 0.5, 3.);
      ("utilization at 1", 1.25, 1., 0.5, 1.);
      (* u < 0 counts as 0: p' = [1 + 0.5 - 5]+ = 0. *)
      ("utilization below 0", 0.5, 1., 0.5, -2.);
      (* p' = [1 - 2 - 2.5]+ = 0, averaged with 1. *)
      ("projection at 0", 0.5, 1., -2., 0.5);
      (* A zero price pushed down stays +0, not -0. *)
      ("projection keeps +0", 0., 0., -1., 1.);
    ]

(* Eq. 14 on exact binary fractions: interval 1/1024 s, price scale 1. *)
let test_dgd_law_edges () =
  let c =
    {
      Law.dgd_update_interval = 1. /. 1024.;
      dgd_gain_util = 0.5;
      dgd_gain_queue = 0.25;
      dgd_price_scale = 1.;
    }
  in
  List.iter
    (fun (what, expected, cap, price, rate, queue) ->
      check_bits what expected (Law.dgd c ~cap ~price ~rate ~queue))
    [
      (* a = 0.5 / 64: p + a (0 - 64) = 1 - 0.5 = 0.5. *)
      ("idle link, above 0", 0.5, 64., 1., 0., 0.);
      ("projection at 0", 0., 64., 0.25, 0., 0.);
      (* BDP = 64 / 1024 / 8 B < 1 B, so b = 0.25 / 1: p = 0.25 * 4. *)
      ("BDP under 1 byte", 1., 64., 0., 64., 4.);
      (* BDP = 2^16 / 1024 / 8 = 8 B, so b = 0.25 / 8: p = 4 / 32. *)
      ("BDP over 1 byte", 0.125, 65536., 0., 65536., 4.);
    ]

(* Eq. 15 under both substrates' bounds. T = d, a = 2, b = 0.2. *)
let test_rcp_law_edges () =
  let c = { Law.rcp_table2 with Law.rcp_gain_spare = 2. } in
  List.iter
    (fun (what, bounds, expected, cap, fair_rate, rate, queue) ->
      check_bits what expected (Law.rcp bounds c ~cap ~fair_rate ~rate ~queue))
    [
      (* Idle: 1 + 2 (C - 0) / C = 3, clamped to the factor's top. *)
      ("packet factor top", Law.rcp_packet, 1.1, 1024., 1., 0., 0.);
      ("fluid factor top", Law.rcp_fluid, 2., 1024., 1., 0., 0.);
      (* Heavy overload: the factor's bottom, 0.5, for both. *)
      ("packet factor bottom", Law.rcp_packet, 256., 1024., 512., 1e9, 0.);
      ("fluid factor bottom", Law.rcp_fluid, 256., 1024., 512., 1e9, 0.);
      (* A halved rate below the floor: 1e-4 C (packet), 1e-6 C (fluid). *)
      ("packet rate floor", Law.rcp_packet, 1e10 *. 1e-4, 1e10, 1e5, 1e12, 0.);
      ("fluid rate floor", Law.rcp_fluid, 1e10 *. 1e-6, 1e10, 1e3, 1e12, 0.);
      (* A grown rate above the ceiling, 100 C, for both. *)
      ("packet rate ceiling", Law.rcp_packet, 102400., 1024., 102000., 0., 0.);
      ("fluid rate ceiling", Law.rcp_fluid, 102400., 1024., 102000., 0., 0.);
    ]

let () =
  Alcotest.run "nf_num"
    [
      ( "utility",
        [
          quick "log utility" test_alpha_fair_log;
          quick "weighted alpha-fair" test_alpha_fair_weighted;
          quick "validation" test_alpha_fair_validation;
          quick "fct = weighted alpha-fair" test_fct_matches_weighted_alpha;
          quick "deadline utility (EDF)" test_deadline_utility;
          quick "remaining-size utility (SRPT)" test_fct_remaining_tracks;
          quick "price clamping" test_rate_from_price_clamps;
          quick "closed forms bitwise" test_utility_closed_forms_bitwise;
          qcheck prop_inv_deriv_roundtrip;
          qcheck prop_deriv_decreasing;
          qcheck prop_value_increasing;
        ] );
      ( "maxmin",
        [
          quick "single link equal" test_maxmin_single_link_equal;
          quick "single link weighted" test_maxmin_single_link_weighted;
          quick "two bottlenecks" test_maxmin_two_bottlenecks;
          quick "parking lot" test_maxmin_parking_lot;
          quick "validation" test_maxmin_validation;
          qcheck prop_maxmin_is_maxmin;
          qcheck prop_maxmin_feasible_and_positive;
          qcheck prop_maxmin_scale_invariant;
        ] );
      ( "bandwidth_function",
        [
          quick "fig2 curves" test_bf_fig2_shape;
          quick "fig2 allocation at 10G" test_bf_fig2_allocation_10g;
          quick "fig2 allocation at 25G" test_bf_fig2_allocation_25g;
          quick "fair-share roundtrip" test_bf_fair_share_roundtrip;
          quick "origin required" test_bf_create_requires_origin;
          quick "utility consistency" test_bf_utility_consistency;
        ] );
      ( "oracle",
        [
          quick "single link proportional" test_oracle_dual_single_link_proportional;
          quick "single link weighted" test_oracle_dual_single_link_weighted;
          quick "parking lot alpha=1" test_oracle_dual_parking_lot_alpha1;
          quick "parking lot alpha=2" test_oracle_dual_parking_lot_alpha2;
          quick "multipath rejected" test_oracle_dual_rejects_multipath;
          quick "kkt certified" test_oracle_dual_kkt_certified;
          quick "carry rejects another link count" test_oracle_carry_rejects_other_links;
          quick "carry emptied by a failed solve" test_oracle_carry_emptied_on_failure;
        ] );
      ( "xwi",
        [
          quick "single link proportional" test_xwi_single_link_proportional;
          quick "parking lot leaves its seed" test_xwi_parking_lot_leaves_seed;
          quick "matches dual on parking lot" test_xwi_matches_dual_on_parking_lot;
          quick "fixed-point weights equal rates" test_xwi_prices_drive_weights;
          quick "multipath pooling" test_xwi_multipath_pooling;
          slow "matches dual on random problems" (fun () ->
              match
                QCheck.Test.check_exn prop_xwi_matches_dual_random
              with
              | () -> ()
              | exception QCheck.Test.Test_fail (_, _) ->
                Alcotest.fail "random xWI/dual mismatch");
          qcheck prop_xwi_fixed_point_unique;
          qcheck prop_multipath_oracle_kkt;
        ] );
      ( "price laws",
        [
          quick "xwi link law at its edges" test_xwi_law_edges;
          quick "dgd law at its edges" test_dgd_law_edges;
          quick "rcp law at its edges" test_rcp_law_edges;
        ] );
      ( "kkt",
        [
          quick "detects infeasible" test_kkt_detects_infeasible;
          quick "detects bad stationarity" test_kkt_detects_bad_stationarity;
          quick "accepts optimum" test_kkt_accepts_optimum;
          quick "detects slackness violation" test_kkt_slackness;
          quick "check_into matches the per-flow oracle bitwise"
            test_kkt_check_into_matches_oracle;
          quick "check_into validates lengths" test_kkt_check_into_validates;
          quick "witness-first stopping matches the full-check loop"
            test_witness_stopping_matches_oracle;
        ] );
      ( "problem",
        [
          quick "structure" test_problem_structure;
          quick "validation" test_problem_validation;
        ] );
      ( "delta",
        [
          quick "add/remove/commit, gid stability" test_delta_add_remove_commit;
          quick "validation" test_delta_validation;
          quick "stale solver state guarded" test_delta_stale_state_guarded;
          quick "capacity change mid-run (Fig. 10 path)" test_delta_caps_midrun;
          qcheck prop_warm_churn_matches_cold;
          qcheck prop_kkt_after_random_churn;
          qcheck prop_commit_matches_fresh_build;
        ] );
      ( "warm-restart",
        [
          qcheck prop_polished_start_no_worse;
          quick "opaque and multipath keep the carried start bit for bit"
            test_polish_fallback_bit_identical;
          quick "resize is deterministic" test_polish_deterministic;
          quick "polish with elimination fill, pinned" test_polish_fill_pinned;
          qcheck prop_polish_prices_feasible;
          quick "polish adds a link the arrival overloads"
            test_polish_adds_overloaded_link;
          quick "polish retries a failed solve without its negative link"
            test_polish_retries_failed_solve;
          quick "the proportional step fills single-flow-set links exactly"
            test_polish_single_link_exact;
          quick "a mixed-alpha link keeps its price through the step"
            test_polish_mixed_alpha_keeps_price;
          quick "a singular Newton step drops the link it prices below zero"
            test_polish_singular_drops_link;
          quick "resize consumes the old state" test_resize_consumes;
          quick "a polish over the active-set cap keeps the carried start"
            test_polish_over_cap_keeps_carried;
          qcheck prop_cold_start_polished_or_seed;
          quick "a cold start past the cap's busy links keeps the seed"
            test_cold_start_skips_past_max_active;
          quick "a cold start whose polish fails keeps the seed"
            test_cold_start_failed_polish_keeps_seed;
          qcheck prop_handed_down_resize_bit_identical;
          quick "exp churn: every arrival certified at iteration 0"
            test_churn_polished_epochs;
        ] );
      ( "sparse",
        [
          quick "incidence structure" test_incidence_structure;
          qcheck prop_sparse_maxmin_matches_reference;
          qcheck prop_sparse_step_matches_reference;
        ] );
      ( "diag",
        [
          quick "fmax/fmin match Float.max/min" test_fmax_fmin_match_stdlib;
          quick "sparse maxmin stats" test_maxmin_sparse_stats;
          quick "sparse maxmin tolerance round" test_maxmin_sparse_tolerance_round;
          quick "sparse maxmin after set_cap" test_maxmin_sparse_set_cap;
          quick "sparse maxmin pinned: fat tree"
            test_maxmin_sparse_pinned_fat_tree;
          quick "sparse maxmin pinned: tie" test_maxmin_sparse_pinned_tie;
          quick "sparse maxmin pinned: drained recount"
            test_maxmin_sparse_pinned_drained_recount;
          quick "observe and report" test_diag_observe_and_report;
          quick "postmortem on non-convergence"
            test_diag_postmortem_on_nonconvergence;
        ] );
    ]
