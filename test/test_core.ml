(* Tests for nf_core: the Objective menu and the Fabric facade. *)

module Objective = Nf_core.Objective
module Fabric = Nf_core.Fabric
module Builders = Nf_topo.Builders
module Utility = Nf_num.Utility
module Fcmp = Nf_util.Fcmp
module Approx = Nf_testkit.Approx

let quick name f = Alcotest.test_case name `Quick f

let check_close ?(rel = 1e-4) what expected actual =
  if not (Approx.rel_eq ~rel expected actual) then
    Alcotest.failf "%s: expected %.6g, got %.6g" what expected actual

(* ------------------------------------------------------------------ *)
(* Objective *)

let test_objective_alpha () =
  let u = Objective.utility_for (Objective.Alpha_fairness { alpha = 2. }) ~key:0 ~size:0. in
  let v = Utility.alpha_fair ~alpha:2. () in
  check_close ~rel:1e-12 "same marginal" (Utility.deriv v 3.) (Utility.deriv u 3.)

let test_objective_weighted () =
  let weight_of key = float_of_int (key + 1) in
  let o = Objective.Weighted_fairness { alpha = 1.; weight_of } in
  let u0 = Objective.utility_for o ~key:0 ~size:0. in
  let u2 = Objective.utility_for o ~key:2 ~size:0. in
  (* weight 3 flow has 3x the marginal utility at the same rate *)
  check_close ~rel:1e-12 "weights applied" 3.
    (Utility.deriv u2 5. /. Utility.deriv u0 5.)

let test_objective_fct_uses_size () =
  let o = Objective.minimize_fct in
  let small = Objective.utility_for o ~key:0 ~size:1e4 in
  let big = Objective.utility_for o ~key:1 ~size:1e7 in
  Alcotest.(check bool) "small flows steeper" true
    (Utility.deriv small 1e6 > Utility.deriv big 1e6)

let test_objective_describe () =
  Alcotest.(check string) "describe alpha" "alpha-fairness (alpha = 1)"
    (Objective.describe Objective.proportional_fairness)

(* ------------------------------------------------------------------ *)
(* Fabric *)

let single_bottleneck_plan objective =
  let sb = Builders.single_bottleneck ~n_senders:3 () in
  let demands =
    List.init 3 (fun i ->
        Fabric.demand ~key:(10 + i) ~src:sb.Builders.senders.(i)
          ~dst:sb.Builders.receiver ())
  in
  (sb, Fabric.plan ~topology:sb.Builders.sb_topo ~objective ~demands)

let test_fabric_optimal_equal_split () =
  let _, plan = single_bottleneck_plan Objective.proportional_fairness in
  List.iter
    (fun (key, rate) ->
      check_close (Printf.sprintf "flow %d" key) (1e10 /. 3.) rate)
    (Fabric.optimal plan)

let test_fabric_weighted () =
  let weight_of key = match key with 10 -> 1. | 11 -> 2. | _ -> 5. in
  let _, plan =
    single_bottleneck_plan (Objective.Weighted_fairness { alpha = 1.; weight_of })
  in
  let rates = List.sort compare (List.map snd (Fabric.optimal plan)) in
  match rates with
  | [ a; b; c ] ->
    check_close "w1" (1e10 /. 8.) a;
    check_close "w2" (2e10 /. 8.) b;
    check_close "w5" (5e10 /. 8.) c
  | _ -> Alcotest.fail "expected three rates"

let test_fabric_multipath_plan () =
  let tl = Builders.three_link_pooling () in
  let demands =
    [
      Fabric.demand ~key:0 ~subflows:2
        ~paths:tl.Builders.tl_paths1 ~src:tl.Builders.src1 ~dst:tl.Builders.sink ();
      Fabric.demand ~key:1 ~subflows:2
        ~paths:tl.Builders.tl_paths2 ~src:tl.Builders.src2 ~dst:tl.Builders.sink ();
    ]
  in
  let plan =
    Fabric.plan ~topology:tl.Builders.tl_topo
      ~objective:(Objective.Resource_pooling { alpha = 1. })
      ~demands
  in
  (* Pooled proportional fairness on (5 + 3 + 5 shared): 6.5 Gbps each. *)
  List.iter
    (fun (key, rate) -> check_close ~rel:1e-3 (Printf.sprintf "agg %d" key) 6.5e9 rate)
    (Fabric.optimal plan);
  Alcotest.check_raises "packet sim refuses multipath"
    (Invalid_argument "Fabric.simulate: multipath demands not supported at packet level")
    (fun () -> ignore (Fabric.simulate ~until:1e-3 plan))

let test_fabric_validation () =
  let sb = Builders.single_bottleneck ~n_senders:2 () in
  let d k = Fabric.demand ~key:k ~src:sb.Builders.senders.(0) ~dst:sb.Builders.receiver () in
  Alcotest.check_raises "duplicate keys"
    (Invalid_argument "Fabric.plan: duplicate demand key") (fun () ->
      ignore
        (Fabric.plan ~topology:sb.Builders.sb_topo
           ~objective:Objective.proportional_fairness
           ~demands:[ d 1; d 1 ]));
  Alcotest.check_raises "no demands" (Invalid_argument "Fabric.plan: no demands")
    (fun () ->
      ignore
        (Fabric.plan ~topology:sb.Builders.sb_topo
           ~objective:Objective.proportional_fairness ~demands:[]))

let test_fabric_simulate_matches_oracle () =
  let _, plan = single_bottleneck_plan Objective.proportional_fairness in
  let net = Fabric.simulate ~until:3e-3 plan in
  List.iter
    (fun (key, expected) ->
      match Nf_sim.Network.measured_rate net key with
      | Some r ->
        if not (Fcmp.within_fraction ~frac:0.05 ~actual:r ~target:expected) then
          Alcotest.failf "flow %d: %.3g vs oracle %.3g" key r expected
      | None -> Alcotest.failf "flow %d silent" key)
    (Fabric.optimal plan)

let () =
  Alcotest.run "nf_core"
    [
      ( "objective",
        [
          quick "alpha fairness" test_objective_alpha;
          quick "weighted fairness" test_objective_weighted;
          quick "fct uses sizes" test_objective_fct_uses_size;
          quick "describe" test_objective_describe;
        ] );
      ( "fabric",
        [
          quick "optimal equal split" test_fabric_optimal_equal_split;
          quick "optimal weighted" test_fabric_weighted;
          quick "multipath plan" test_fabric_multipath_plan;
          quick "validation" test_fabric_validation;
          quick "packet sim matches oracle" test_fabric_simulate_matches_oracle;
        ] );
    ]
