(* Tests for the structured experiment API (Ctx/Report) and the
   worker-pool Runner: parallel output must equal sequential output, every task runs
   exactly once, and a failing task must not take its neighbors down. *)

module E = Nf_experiments
module Ctx = E.Ctx
module Report = E.Report
module Runner = E.Runner

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

(* Reports compare by their rendered JSON: the bytes [nf_run exp --json]
   prints. *)
let render r = Nf_util.Json.to_string (Report.json r)

let check_report what a b = Alcotest.(check string) what (render a) (render b)

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
  check_report "nan = nan" (r ()) (r ());
  Alcotest.(check bool) "different titles differ" false
    (String.equal (render sample_report) (render (r ())))

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
    Nf_util.Json.to_string
      (Report.json
         (Report.make ~title:"j" ~columns:[ "x" ] [ [ Report.float Float.nan ] ]))
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

let full_ctx = Ctx.make ~scale:1. ~seed:0

let quick_ctx = Ctx.make ~scale:0.2 ~seed:0

let test_ctx_scaled () =
  Alcotest.(check int) "full scale is identity" 100
    (Ctx.scaled ~floor:1 full_ctx 100);
  Alcotest.(check int) "quick is 0.2" 20 (Ctx.scaled ~floor:1 quick_ctx 100);
  Alcotest.(check int) "ceil, not floor" 1 (Ctx.scaled ~floor:0 quick_ctx 3);
  Alcotest.(check int) "floor clamps" 8 (Ctx.scaled ~floor:8 quick_ctx 10);
  Alcotest.check_raises "scale must be positive"
    (Invalid_argument "Ctx.make: scale 0 not positive") (fun () ->
      ignore (Ctx.make ~scale:0. ~seed:0))

let test_ctx_seeds () =
  Alcotest.(check int) "seed base 0 preserves historical seeds" 17
    (Ctx.rng_seed full_ctx ~default:17);
  let shifted = Ctx.make ~scale:1. ~seed:5 in
  Alcotest.(check int) "seed base adds" 22 (Ctx.rng_seed shifted ~default:17)

(* ------------------------------------------------------------------ *)
(* Runner *)

let find_entry name =
  match E.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry lost experiment %s" name

let outcome_report (r : Runner.result) =
  match r.Runner.outcome with
  | Ok report -> report
  | Error msg -> Alcotest.failf "%s failed: %s" r.Runner.task_name msg

(* The acceptance check in miniature: sharding the cheap experiments over
   4 domains must merge to exactly the sequential reports. swift and churn
   derive their seeds from the per-task context. *)
let test_parallel_equals_sequential () =
  let tasks =
    List.map find_entry [ "table1"; "table2"; "fig2"; "fig9"; "swift"; "churn" ]
  in
  let seq = Runner.run ~jobs:1 ~ctx:quick_ctx tasks in
  let par = Runner.run ~jobs:4 ~ctx:quick_ctx tasks in
  Alcotest.(check (list string))
    "task order preserved"
    (List.map (fun (t : E.Registry.entry) -> t.name) tasks)
    (List.map (fun (r : Runner.result) -> r.Runner.task_name) par);
  List.iter2
    (fun a b ->
      check_report
        ("jobs:1 = jobs:4 for " ^ a.Runner.task_name)
        (outcome_report a) (outcome_report b);
      Alcotest.(check string)
        ("rendered bytes identical for " ^ a.Runner.task_name)
        (Report.to_text (outcome_report a))
        (Report.to_text (outcome_report b)))
    seq par

let trivial_report name =
  Report.make ~title:name ~columns:[ "x" ] [ [ Report.int 1 ] ]

let task name run = { E.Registry.name; description = ""; run }

(* A raising task sits between two good ones: it must run exactly once
   and fail with its exception's text while both neighbours finish. *)
let check_isolated exn =
  let runs = Atomic.make 0 in
  let tasks =
    [
      task "ok-before" (fun _ -> trivial_report "ok-before");
      task "raises" (fun _ ->
          Atomic.incr runs;
          raise exn);
      task "ok-after" (fun _ -> trivial_report "ok-after");
    ]
  in
  match Runner.run ~jobs:2 ~ctx:full_ctx tasks with
  | [ before; raised; after ] -> (
    Alcotest.(check int) "ran exactly once" 1 (Atomic.get runs);
    check_report "neighbor before survives" (trivial_report "ok-before")
      (outcome_report before);
    check_report "neighbor after survives" (trivial_report "ok-after")
      (outcome_report after);
    match raised.Runner.outcome with
    | Error msg ->
      Alcotest.(check string) "failure message kept" (Printexc.to_string exn) msg
    | Ok _ -> Alcotest.fail "a raising task should report a failure")
  | rs -> Alcotest.failf "expected 3 results, got %d" (List.length rs)

let test_failing_task_isolates () = check_isolated (Failure "synthetic crash")

(* A solver that does not converge is reported, not re-rolled. *)
let test_nonconvergence_runs_once () =
  check_isolated (Nf_num.Oracle.Did_not_converge "synthetic divergence")

(* More jobs than tasks: the pool shrinks to one worker per task, and the
   merged results equal the one-worker run. *)
let test_wide_pool_equals_one_worker () =
  let tasks =
    List.init 3 (fun i ->
        let name = Printf.sprintf "t%d" i in
        task name (fun _ -> trivial_report name))
  in
  let one = Runner.run ~jobs:1 ~ctx:full_ctx tasks in
  let wide = Runner.run ~jobs:16 ~ctx:full_ctx tasks in
  Alcotest.(check (list string)) "task order preserved" [ "t0"; "t1"; "t2" ]
    (List.map (fun (r : Runner.result) -> r.Runner.task_name) wide);
  List.iter2
    (fun a b ->
      check_report
        ("jobs:16 = jobs:1 for " ^ a.Runner.task_name)
        (outcome_report a) (outcome_report b))
    one wide

(* A task's report does not depend on its place in the sweep: swift
   draws its flows from the context's seed, and run second it reports
   exactly what it reports alone. *)
let test_report_independent_of_index () =
  let swift = find_entry "swift" in
  let alone = Runner.run ~jobs:1 ~ctx:quick_ctx [ swift ] in
  let second = Runner.run ~jobs:1 ~ctx:quick_ctx [ find_entry "table1"; swift ] in
  match (alone, second) with
  | [ a ], [ _; b ] ->
    check_report "swift at index 1 = swift alone" (outcome_report a)
      (outcome_report b)
  | _ -> Alcotest.fail "expected one result per task"

(* The static list is the registry: every id once, in paper order. *)
let test_registry_covers_paper () =
  let names = List.map (fun (e : E.Registry.entry) -> e.name) E.Registry.all in
  Alcotest.(check (list string))
    "the paper's ids, in order"
    [
      "table1"; "table2"; "fig2"; "fig4a"; "fig4a-packet"; "fig4bc"; "fig5";
      "fig6a"; "fig6b"; "fig6c"; "fig7"; "fig8"; "fig9"; "fig10"; "swift";
      "queues"; "random"; "ablation"; "churn"; "scale";
    ]
    names;
  Alcotest.(check int) "ids are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

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
          quick "non-convergence runs once" test_nonconvergence_runs_once;
          quick "jobs:16 over 3 tasks = jobs:1" test_wide_pool_equals_one_worker;
          quick "report independent of task index" test_report_independent_of_index;
          quick "registry covers the paper" test_registry_covers_paper;
        ] );
    ]
