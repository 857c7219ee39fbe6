(* Self-tests of the benchmark: every workload at a tiny size reports
   every catalogued metric with its unit and passes its own checks;
   BENCHMARK.json names exactly the catalogued metrics; and the
   correctness gate rejects a perturbed allocation, a short-delivered
   flow and a stalled one. *)

open Nfbench
module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Sjson = Nf_serve.Sjson

let tiny_run name ~trace () =
  let w = Option.get (Workloads.find name) in
  let spans_out = Filename.temp_file "nfbench" ".spans.tsv" in
  let o = w.Workloads.run ~tiny:true ~seconds:1 ~seed:3 ~trace ~spans_out in
  Sys.remove spans_out;
  Alcotest.(check (list string)) "no failed check" [] o.Outcome.problems;
  Alcotest.(check int) "no failed op" 0 o.Outcome.failed;
  Alcotest.(check bool) "ops attempted" true (o.Outcome.attempted >= 1);
  let catalogue = if trace then Workloads.per_layer else Workloads.end_to_end in
  Alcotest.(check (list (pair string string)))
    "every metric, with its unit" catalogue
    (List.map (fun m -> (m.Outcome.name, m.Outcome.unit_)) o.Outcome.metrics);
  if not trace then
    List.iter
      (fun m ->
        Alcotest.(check bool) (m.Outcome.name ^ " positive") true (m.Outcome.value > 0.))
      o.Outcome.metrics;
  let json = Outcome.to_json o in
  match Sjson.parse json with
  | Ok doc ->
    Alcotest.(check (option bool)) "correct" (Some true)
      (match Sjson.member "correct" doc with Some (Sjson.Bool b) -> Some b | _ -> None)
  | Error e -> Alcotest.fail ("result line is not JSON: " ^ e)

let bench_metrics doc key =
  match Sjson.obj_list key doc with
  | None -> Alcotest.fail ("BENCHMARK.json lacks " ^ key)
  | Some ms ->
    List.map
      (fun m -> (Option.get (Sjson.obj_str "name" m), Option.get (Sjson.obj_str "unit" m)))
      ms

let benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let doc = match Sjson.parse text with Ok d -> d | Error e -> Alcotest.fail e in
  Alcotest.(check (list (pair string string)))
    "end_to_end" Workloads.end_to_end (bench_metrics doc "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer" Workloads.per_layer (bench_metrics doc "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    (List.map
       (fun w -> Option.get (Sjson.obj_str "name" w))
       (Option.get (Sjson.obj_list "workloads" doc)))

(* Reference time divides each op by the median pass around it, and an
   op without its pass is a benchmark bug. *)
let calib_scales_by_local_median () =
  let c = { Calib.times = [| 2e-3; 2e-3; 8e-3 |]; n = 3 } in
  Alcotest.(check (array (float 1e-12)))
    "op time over the median pass, times 1 ms" [| 0.5e-3; 1.5e-3; 2.5e-3 |]
    (Calib.reference_times c [| 1e-3; 3e-3; 5e-3 |]);
  Alcotest.check_raises "one pass per op" (Invalid_argument "Calib.reference_times: one pass per op")
    (fun () -> ignore (Calib.reference_times c [| 1e-3 |]))

(* A parking lot: one two-link flow against two one-link flows. *)
let solved () =
  let u = Nf_num.Utility.proportional_fair () in
  let p =
    Problem.create ~caps:[| 10e9; 10e9 |]
      ~groups:[ Problem.single_path u [| 0; 1 |]; Problem.single_path u [| 0 |]; Problem.single_path u [| 1 |] ]
  in
  let st = Xwi_core.init p in
  let run = Xwi_core.run_until_kkt ~tol:1e-9 p Xwi_core.default_params st in
  Alcotest.(check bool) "reference solve converges" true run.Xwi_core.converged;
  (p, st)

let gate_accepts_optimum () =
  let p, st = solved () in
  Alcotest.(check (option string)) "optimum passes" None
    (Gate.allocation p ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices)

let gate_rejects_perturbed () =
  let p, st = solved () in
  let prices = st.Xwi_core.prices in
  let lower = Array.copy st.Xwi_core.rates in
  lower.(1) <- lower.(1) *. 0.99;
  Alcotest.(check bool) "1% lower rate fails the KKT check" true
    (Option.is_some (Gate.allocation p ~rates:lower ~prices));
  let higher = Array.copy st.Xwi_core.rates in
  higher.(1) <- higher.(1) *. 1.01;
  Alcotest.(check bool) "1% higher rate fails (overloads link 0)" true
    (Option.is_some (Gate.allocation p ~rates:higher ~prices))

(* One finite flow through a real network: the delivered bytes pass, one
   packet fewer does not. *)
let gate_rejects_short_delivery () =
  let sb = Nf_topo.Builders.single_bottleneck ~n_senders:1 () in
  let net =
    Nf_sim.Network.create ~topology:sb.Nf_topo.Builders.sb_topo
      ~protocol:(Nf_sim.Protocols.get "numfabric") ()
  in
  let size = 30. *. float_of_int Nf_sim.Packet.data_size in
  Nf_sim.Network.add_flow net
    (Nf_sim.Network.flow ~utility:(Nf_num.Utility.proportional_fair ()) ~size ~id:0
       ~src:sb.Nf_topo.Builders.senders.(0) ~dst:sb.Nf_topo.Builders.receiver ());
  Nf_sim.Network.run net ~until:0.01;
  Alcotest.(check bool) "flow completed" true (Option.is_some (Nf_sim.Network.fct net 0));
  let received = Nf_sim.Network.received_bytes net 0 in
  Alcotest.(check (option string)) "full delivery passes" None
    (Gate.delivery ~flow:0 ~size ~received);
  Alcotest.(check bool) "short delivery fails" true
    (Option.is_some
       (Gate.delivery ~flow:0 ~size ~received:(received -. float_of_int Nf_sim.Packet.data_size)))

(* A flow cut off before it completes: the packet gate fails the run if
   the flow had to finish, and fails it anyway when no flow completed. *)
let gate_rejects_stalled_flow () =
  let sb = Nf_topo.Builders.single_bottleneck ~n_senders:1 () in
  let net =
    Nf_sim.Network.create ~topology:sb.Nf_topo.Builders.sb_topo
      ~protocol:(Nf_sim.Protocols.get "numfabric") ()
  in
  let size = 3000. *. float_of_int Nf_sim.Packet.data_size in
  Nf_sim.Network.add_flow net
    (Nf_sim.Network.flow ~utility:(Nf_num.Utility.proportional_fair ()) ~size ~id:0
       ~src:sb.Nf_topo.Builders.senders.(0) ~dst:sb.Nf_topo.Builders.receiver ());
  let until = 100e-6 in
  Nf_sim.Network.run net ~until;
  Alcotest.(check bool) "flow still running" true (Option.is_none (Nf_sim.Network.fct net 0));
  let check must_finish =
    Packet_websearch.check_deliveries ~ends:[| until |] net
      [| { Packet_websearch.bytes = size; start = 0.; must_finish } |]
  in
  let failed, problems = check true in
  Alcotest.(check int) "must-finish flow fails the op" 1 failed;
  Alcotest.(check int) "unfinished flow and no completion" 2 (List.length problems);
  let failed, problems = check false in
  Alcotest.(check int) "no completion fails the op" 1 failed;
  Alcotest.(check (list string)) "no completion" [ "no flow completed" ] problems

let () =
  let tiny name =
    [
      Alcotest.test_case (name ^ " untraced") `Quick (tiny_run name ~trace:false);
      Alcotest.test_case (name ^ " traced") `Quick (tiny_run name ~trace:true);
    ]
  in
  Alcotest.run "nfbench"
    [
      ("tiny", List.concat_map tiny [ "serve_churn"; "solve_cold"; "packet_websearch" ]);
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json ]);
      ("calib", [ Alcotest.test_case "scales by the local median" `Quick calib_scales_by_local_median ]);
      ( "gate",
        [
          Alcotest.test_case "accepts the optimum" `Quick gate_accepts_optimum;
          Alcotest.test_case "rejects a perturbed rate vector" `Quick gate_rejects_perturbed;
          Alcotest.test_case "rejects a short-delivered flow" `Quick gate_rejects_short_delivery;
          Alcotest.test_case "rejects a stalled flow" `Quick gate_rejects_stalled_flow;
        ] );
    ]
