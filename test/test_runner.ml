(* Tests for the structured experiment API (Ctx/Report) and the sharded
   Runner: parallel output must equal sequential output, timeouts must
   trigger a retry, and a failing task must not take its neighbors down. *)

module E = Nf_experiments
module Ctx = E.Ctx
module Report = E.Report
module Runner = E.Runner

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let report_t = Alcotest.testable Report.pp Report.equal

(* ------------------------------------------------------------------ *)
(* Report *)

let sample_report =
  Report.make ~title:"sample" ~columns:[ "flow"; "rate_gbps" ]
    ~notes:[ "headline" ]
    [
      [ Report.text "a"; Report.float 1.5 ];
      [ Report.text "b"; Report.float 2.5 ];
    ]

let test_report_width_check () =
  Alcotest.check_raises "short row rejected"
    (Invalid_argument "Report.make: row 1 has 1 cells, expected 2") (fun () ->
      ignore
        (Report.make ~title:"bad" ~columns:[ "a"; "b" ]
           [ [ Report.int 1; Report.int 2 ]; [ Report.int 3 ] ]))

let test_report_equal_nan () =
  let r () =
    Report.make ~title:"nan" ~columns:[ "x" ] [ [ Report.float Float.nan ] ]
  in
  Alcotest.check report_t "nan = nan" (r ()) (r ());
  Alcotest.(check bool) "different titles differ" false
    (Report.equal sample_report (r ()))

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_text () =
  let text = Report.to_text sample_report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("text contains " ^ needle) true
        (contains ~needle text))
    [ "sample"; "flow"; "rate_gbps"; "1.5"; "[headline]" ]

let test_report_json () =
  let json =
    Report.to_json
      (Report.make ~title:"j" ~columns:[ "x" ] [ [ Report.float Float.nan ] ])
  in
  Alcotest.(check bool) "non-finite floats become null" true
    (contains ~needle:"null" json);
  Alcotest.(check bool) "has columns key" true
    (contains ~needle:"\"columns\":[\"x\"]" json)

let test_report_csv () =
  let csv =
    Report.to_csv
      (Report.make ~title:"c" ~columns:[ "name"; "n" ]
         ~notes:[ "a note" ]
         [ [ Report.text "has,comma and \"quote\""; Report.int 3 ] ])
  in
  Alcotest.(check bool) "comma cell quoted" true
    (contains ~needle:"\"has,comma and \"\"quote\"\"\",3" csv);
  Alcotest.(check bool) "notes as comments" true
    (contains ~needle:"# a note" csv)

(* ------------------------------------------------------------------ *)
(* Ctx *)

let test_ctx_scaled () =
  Alcotest.(check int) "full scale is identity" 100
    (Ctx.scaled Ctx.default 100);
  Alcotest.(check int) "quick is 0.2" 20 (Ctx.scaled Ctx.quick 100);
  Alcotest.(check int) "ceil, not floor" 1 (Ctx.scaled Ctx.quick 3);
  Alcotest.(check int) "floor clamps" 8 (Ctx.scaled ~floor:8 Ctx.quick 10);
  Alcotest.check_raises "scale must be positive"
    (Invalid_argument "Ctx.make: scale 0 not positive") (fun () ->
      ignore (Ctx.make ~scale:0. ()))

let test_ctx_seeds () =
  Alcotest.(check int) "default ctx preserves historical seeds" 17
    (Ctx.rng_seed Ctx.default ~default:17);
  let shifted = Ctx.make ~seed:5 () in
  Alcotest.(check int) "seed base adds" 22 (Ctx.rng_seed shifted ~default:17);
  let t3 = Ctx.for_task Ctx.default ~index:3 ~attempt:0 in
  Alcotest.(check int) "task index offsets the seed" 20
    (Ctx.rng_seed t3 ~default:17);
  let retry = Ctx.for_task Ctx.default ~index:3 ~attempt:2 in
  Alcotest.(check bool) "retries perturb the seed" true
    (Ctx.rng_seed retry ~default:17 <> Ctx.rng_seed t3 ~default:17)

(* ------------------------------------------------------------------ *)
(* Runner *)

let find_entry name =
  match E.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry lost experiment %s" name

let outcome_report (r : Runner.result) =
  match r.Runner.outcome with
  | Ok report -> report
  | Error (Runner.Timed_out t) ->
    Alcotest.failf "%s timed out (%gs)" r.Runner.task_name t
  | Error (Runner.Failed msg) ->
    Alcotest.failf "%s failed: %s" r.Runner.task_name msg

(* The acceptance check in miniature: sharding the cheap experiments over
   4 domains must merge to exactly the sequential reports. *)
let test_parallel_equals_sequential () =
  let tasks =
    List.map
      (fun n -> Runner.of_entry (find_entry n))
      [ "table1"; "table2"; "fig2"; "fig9" ]
  in
  let ctx = Ctx.quick in
  let seq = Runner.run ~jobs:1 ~ctx tasks in
  let par = Runner.run ~jobs:4 ~ctx tasks in
  Alcotest.(check (list string))
    "task order preserved"
    (List.map (fun (t : Runner.task) -> t.Runner.name) tasks)
    (List.map (fun (r : Runner.result) -> r.Runner.task_name) par);
  List.iter2
    (fun a b ->
      Alcotest.check report_t
        ("jobs:1 = jobs:4 for " ^ a.Runner.task_name)
        (outcome_report a) (outcome_report b);
      Alcotest.(check string)
        ("rendered bytes identical for " ^ a.Runner.task_name)
        (Report.to_text (outcome_report a))
        (Report.to_text (outcome_report b)))
    seq par

let trivial_report name =
  Report.make ~title:name ~columns:[ "x" ] [ [ Report.int 1 ] ]

let test_failing_task_isolates () =
  let boom = Failure "synthetic crash" in
  let tasks =
    [
      Runner.task ~name:"ok-before" (fun _ -> trivial_report "ok-before");
      Runner.task ~name:"crashes" (fun _ -> raise boom);
      Runner.task ~name:"ok-after" (fun _ -> trivial_report "ok-after");
    ]
  in
  match Runner.run ~jobs:2 ~retries:2 tasks with
  | [ before; crashed; after ] ->
    Alcotest.check report_t "neighbor before survives" (trivial_report "ok-before")
      (outcome_report before);
    Alcotest.check report_t "neighbor after survives" (trivial_report "ok-after")
      (outcome_report after);
    (match crashed.Runner.outcome with
    | Error (Runner.Failed msg) ->
      Alcotest.(check bool) "failure message kept" true
        (contains ~needle:"synthetic crash" msg);
      Alcotest.(check int) "non-transient failures are not retried" 1
        crashed.Runner.attempts
    | Ok _ | Error (Runner.Timed_out _) ->
      Alcotest.fail "crashing task should report Failed")
  | rs -> Alcotest.failf "expected 3 results, got %d" (List.length rs)

let test_transient_retry () =
  (* Diverges on attempt 0, converges on the retry: the attempt counter
     in the task's Ctx is the only state, so the behavior is exactly the
     [Did_not_converge]-then-recover path. *)
  let t =
    Runner.task ~name:"flaky" (fun ctx ->
        if ctx.Ctx.attempt = 0 then
          raise (Nf_num.Oracle.Did_not_converge "synthetic divergence")
        else trivial_report "flaky")
  in
  match Runner.run ~jobs:1 ~retries:1 [ t ] with
  | [ r ] ->
    Alcotest.check report_t "recovered on retry" (trivial_report "flaky")
      (outcome_report r);
    Alcotest.(check int) "took two attempts" 2 r.Runner.attempts
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

let test_transient_exhausted () =
  let t =
    Runner.task ~name:"hopeless" (fun _ ->
        raise (Nf_num.Oracle.Did_not_converge "always"))
  in
  match Runner.run ~jobs:1 ~retries:2 [ t ] with
  | [ r ] -> (
    match r.Runner.outcome with
    | Error (Runner.Failed _) ->
      Alcotest.(check int) "all attempts used" 3 r.Runner.attempts
    | Ok _ | Error (Runner.Timed_out _) ->
      Alcotest.fail "exhausted retries should report Failed")
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

let test_timeout_triggers_retry () =
  (* Attempt 0 overruns the budget and is abandoned; attempt 1 returns
     immediately. *)
  let t =
    Runner.task ~name:"slow-once" (fun ctx ->
        if ctx.Ctx.attempt = 0 then Unix.sleepf 0.5;
        trivial_report "slow-once")
  in
  match Runner.run ~jobs:1 ~timeout:0.1 ~retries:1 [ t ] with
  | [ r ] ->
    Alcotest.check report_t "retry beat the budget" (trivial_report "slow-once")
      (outcome_report r);
    Alcotest.(check int) "timeout consumed an attempt" 2 r.Runner.attempts
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

let test_timeout_exhausted () =
  let t =
    Runner.task ~name:"sleeper" (fun _ ->
        Unix.sleepf 0.4;
        trivial_report "sleeper")
  in
  match Runner.run ~jobs:1 ~timeout:0.05 ~retries:0 [ t ] with
  | [ r ] -> (
    match r.Runner.outcome with
    | Error (Runner.Timed_out budget) ->
      Alcotest.(check (float 1e-9)) "budget reported" 0.05 budget;
      Alcotest.(check int) "single attempt" 1 r.Runner.attempts
    | Ok _ | Error (Runner.Failed _) ->
      Alcotest.fail "over-budget task should report Timed_out")
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

let test_registry_covers_paper () =
  let names = E.Registry.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("registry has " ^ n) true (List.mem n names))
    [ "table1"; "fig4a"; "fig7"; "random"; "ablation" ]

let () =
  Alcotest.run "runner"
    [
      ( "report",
        [
          quick "row width checked" test_report_width_check;
          quick "equal handles nan" test_report_equal_nan;
          quick "text renderer" test_report_text;
          quick "json renderer" test_report_json;
          quick "csv renderer" test_report_csv;
        ] );
      ( "ctx",
        [
          quick "scaled" test_ctx_scaled;
          quick "seeds" test_ctx_seeds;
        ] );
      ( "runner",
        [
          slow "jobs:4 merges to jobs:1 bytes" test_parallel_equals_sequential;
          quick "failing task isolates" test_failing_task_isolates;
          quick "transient failure retries" test_transient_retry;
          quick "transient retries exhaust" test_transient_exhausted;
          quick "timeout triggers retry" test_timeout_triggers_retry;
          quick "timeout exhausts" test_timeout_exhausted;
          quick "registry covers the paper" test_registry_covers_paper;
        ] );
    ]
