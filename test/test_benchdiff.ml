(* Tests for the benchmark regression gate: the JSON reader
   (Nf_util.Json) as benchdiff uses it, and the gating rule of
   tools/benchdiff over nfbench result lines. *)

module Json = Nf_util.Json
module Diff = Nf_benchdiff_lib.Diff

let quick name f = Alcotest.test_case name `Quick f

let parse_ok what s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected parse error: %s" what msg

let parse_err what s =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" what
  | Error msg -> msg

(* ------------------------------------------------------------------ *)
(* JSON reader *)

let test_json_scalars () =
  Alcotest.(check bool) "null" true (parse_ok "null" " null " = Json.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" "true" = Json.Bool true);
  (match parse_ok "num" "-12.5e2" with
  | Json.Num v -> Alcotest.(check (float 0.)) "number value" (-1250.) v
  | _ -> Alcotest.fail "expected Num");
  match parse_ok "str" {|"a\"b\\c\ndA"|} with
  | Json.Str s -> Alcotest.(check string) "escapes" "a\"b\\c\nd\065" s
  | _ -> Alcotest.fail "expected Str"

let test_json_nested () =
  let doc =
    parse_ok "nested"
      {|{"rev": "abc", "quick": false, "kernels": {"a": 1, "b": 2.5, "skip": "x"},
         "experiments": [{"name": "e1", "seconds": 0.125}]}|}
  in
  Alcotest.(check (option string)) "rev"
    (Some "abc")
    (Option.bind (Json.member "rev" doc) Json.to_str);
  (match Json.member "kernels" doc with
  | Some kernels ->
      Alcotest.(check (option (float 0.)))
        "nested number" (Some 2.5) (Json.obj_float "b" kernels);
      Alcotest.(check (option (float 0.)))
        "a string is not a number" None (Json.obj_float "skip" kernels)
  | None -> Alcotest.fail "no kernels");
  match
    Option.bind (Json.member "experiments" doc) Json.to_list
  with
  | Some [ e1 ] ->
      Alcotest.(check (option (float 0.)))
        "nested seconds" (Some 0.125)
        (Option.bind (Json.member "seconds" e1) Json.to_float)
  | _ -> Alcotest.fail "expected one experiment"

let test_json_errors () =
  let contains what needle msg =
    let n = String.length needle and h = String.length msg in
    let rec go i =
      i + n <= h && (String.sub msg i n = needle || go (i + 1))
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S (got %S)" what needle msg)
      true (go 0)
  in
  contains "trailing garbage" "trailing garbage" (parse_err "t" "{} {}");
  contains "bad literal" "expected null" (parse_err "l" "nul");
  contains "unterminated string" "unterminated" (parse_err "s" {|"abc|});
  contains "position reported" "line 2" (parse_err "p" "{\n  \"a\" 1}");
  contains "empty input" "end of input" (parse_err "e" "   ")


(* ------------------------------------------------------------------ *)
(* The gate *)

let e2e name better = { Diff.name; better; bound = Some 0.25 }
let layer name better = { Diff.name; better; bound = None }

let specs =
  [
    e2e "op_p50_ms" Diff.Lower;
    e2e "ops_per_s" Diff.Higher;
    layer "xwi.step_us" Diff.Lower;
  ]

let run ?(correct = true) ?(attempted = 100) ?(failed = 0) metrics =
  { Diff.correct; attempted; failed; metrics }

(* An untraced run: the end-to-end metrics only. *)
let untraced ?correct ?failed p50 rate =
  run ?correct ?failed [ ("op_p50_ms", p50); ("ops_per_s", rate) ]

let diff ~old ~new_ =
  Diff.diff specs ~old_label:"old" ~new_label:"new" ~old ~new_

let baseline = [ untraced 10. 100.; untraced 11. 95.; untraced 12. 90. ]

let failures t = List.map Diff.failure_text t.Diff.failures

let check_failures what expected t =
  Alcotest.(check (list string)) what expected (failures t)

let row t ~workload ~metric =
  let w = List.find (fun w -> w.Diff.name = workload) t.Diff.workloads in
  List.find (fun r -> r.Diff.spec.Diff.name = metric) w.Diff.rows

let verdict_t =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Diff.Worse -> "worse"
        | Diff.Better -> "better"
        | Diff.Within -> "within"
        | Diff.Missing -> "missing"
        | Diff.Added -> "added"))
    ( = )

let test_worse_gates () =
  (* The fastest new run, 15.1 ms, is slower than the slowest old run,
     12 ms, by more than 25%. *)
  let slow = [ untraced 15.1 100.; untraced 16. 95.; untraced 17. 90. ] in
  let t = diff ~old:[ ("w", baseline) ] ~new_:[ ("w", slow) ] in
  check_failures "op_p50_ms regression"
    [ Diff.failure_text (Diff.Regression { workload = "w"; metric = "op_p50_ms" }) ]
    t;
  (* Higher is better: the best new rate, 67, is below 90 × 0.75. *)
  let slow = [ untraced 10. 60.; untraced 11. 67. ] in
  let t = diff ~old:[ ("w", baseline) ] ~new_:[ ("w", slow) ] in
  check_failures "ops_per_s regression"
    [ Diff.failure_text (Diff.Regression { workload = "w"; metric = "ops_per_s" }) ]
    t;
  (* 14.9 ms is within 25% of 12 ms, so the sets are not separated by
     more than the bound. *)
  let near = [ untraced 14.9 100.; untraced 30. 95. ] in
  let t = diff ~old:[ ("w", baseline) ] ~new_:[ ("w", near) ] in
  check_failures "within the bound" [] t;
  Alcotest.check verdict_t "within" Diff.Within
    (row t ~workload:"w" ~metric:"op_p50_ms").Diff.verdict;
  (* Faster beyond the bound is reported, not gated. *)
  let fast = [ untraced 5. 200.; untraced 6. 210. ] in
  let t = diff ~old:[ ("w", baseline) ] ~new_:[ ("w", fast) ] in
  check_failures "improvements pass" [] t;
  Alcotest.check verdict_t "better" Diff.Better
    (row t ~workload:"w" ~metric:"op_p50_ms").Diff.verdict

let test_overlap_passes () =
  (* The new median is 60% worse, but one new run beats an old one. *)
  let old = [ untraced 10. 100.; untraced 20. 100. ] in
  let new_ = [ untraced 19. 100.; untraced 32. 100.; untraced 33. 100. ] in
  let t = diff ~old:[ ("w", old) ] ~new_:[ ("w", new_) ] in
  check_failures "overlapping runs pass" [] t;
  Alcotest.check verdict_t "within" Diff.Within
    (row t ~workload:"w" ~metric:"op_p50_ms").Diff.verdict

let test_per_layer_never_gates () =
  let traced step = run [ ("xwi.step_us", step) ] in
  let old = baseline @ [ traced 20.; traced 21. ] in
  (* Ten times slower in every traced run. *)
  let t =
    diff ~old:[ ("w", old) ] ~new_:[ ("w", baseline @ [ traced 210. ]) ]
  in
  check_failures "a per-layer regression passes" [] t;
  Alcotest.check verdict_t "reported worse" Diff.Worse
    (row t ~workload:"w" ~metric:"xwi.step_us").Diff.verdict;
  (* No traced run at all on the new side. *)
  let t = diff ~old:[ ("w", old) ] ~new_:[ ("w", baseline) ] in
  check_failures "a missing per-layer metric passes" [] t;
  Alcotest.check verdict_t "reported missing" Diff.Missing
    (row t ~workload:"w" ~metric:"xwi.step_us").Diff.verdict

let test_missing_gates () =
  let t =
    diff
      ~old:[ ("a", baseline); ("b", baseline) ]
      ~new_:[ ("a", baseline); ("c", baseline) ]
  in
  check_failures "a workload new lacks"
    [ Diff.failure_text (Diff.Missing_workload "b") ]
    t;
  Alcotest.(check (list string))
    "a new-only workload is listed" [ "a"; "b"; "c" ]
    (List.map (fun w -> w.Diff.name) t.Diff.workloads);
  let no_rate = [ run [ ("op_p50_ms", 10.) ]; run [ ("op_p50_ms", 11.) ] ] in
  let t = diff ~old:[ ("a", baseline) ] ~new_:[ ("a", no_rate) ] in
  check_failures "an end-to-end metric new lacks"
    [
      Diff.failure_text
        (Diff.Missing_metric { workload = "a"; metric = "ops_per_s" });
    ]
    t;
  let t = diff ~old:[ ("a", baseline) ] ~new_:[ ("a", []) ] in
  check_failures "an empty new file"
    [ Diff.failure_text (Diff.Missing_workload "a") ]
    t

let test_incorrect_gates () =
  let new_ = [ untraced 10. 100.; untraced ~correct:false 10. 100. ] in
  let t = diff ~old:[ ("w", baseline) ] ~new_:[ ("w", new_) ] in
  check_failures "correct: false"
    [ Diff.failure_text (Diff.Incorrect_run { workload = "w"; line = 2 }) ]
    t;
  let old = [ untraced ~correct:false 10. 100. ] in
  let t = diff ~old:[ ("w", old) ] ~new_:[ ("w", baseline) ] in
  check_failures "an incorrect old run does not gate" [] t

let test_failed_share_gates () =
  let old = [ untraced ~failed:1 10. 100.; untraced 10. 100. ] in
  let t =
    diff ~old:[ ("w", old) ]
      ~new_:[ ("w", [ untraced ~failed:1 10. 100.; untraced ~failed:1 10. 100. ]) ]
  in
  check_failures "a higher failed share"
    [
      Diff.failure_text
        (Diff.Failed_share { workload = "w"; old_share = 0.005; new_share = 0.01 });
    ]
    t;
  let t =
    diff ~old:[ ("w", old) ] ~new_:[ ("w", [ untraced ~failed:1 10. 100.; untraced 10. 100. ]) ]
  in
  check_failures "the same failed share" [] t

(* Result directories as nfbench leaves them: one line per run, the
   metrics with their units. *)
let result_line ?(correct = true) metrics =
  Printf.sprintf {|{"correct":%b,"attempted":100,"failed":0,"metrics":{%s}}|}
    correct
    (String.concat ","
       (List.map
          (fun (n, v) -> Printf.sprintf {|"%s":{"value":%.17g,"unit":"ms"}|} n v)
          metrics))

let write_dir files =
  let dir = Filename.temp_dir "benchdiff" "" in
  List.iter
    (fun (name, lines) ->
      Out_channel.with_open_bin
        (Filename.concat dir (name ^ ".jsonl"))
        (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines))
    files;
  dir

let load_dir_ok dir =
  match Diff.load_dir dir with
  | Ok runs -> runs
  | Error msg -> Alcotest.failf "load_dir %s: %s" dir msg

let test_diff_verdicts () =
  let specs =
    match Diff.load_spec "../BENCHMARK.json" with
    | Ok s -> s
    | Error msg -> Alcotest.failf "BENCHMARK.json: %s" msg
  in
  Alcotest.(check (option (float 0.)))
    "op_p50_ms bound" (Some 0.25)
    (List.find (fun (s : Diff.metric_spec) -> s.Diff.name = "op_p50_ms") specs).Diff.bound;
  Alcotest.(check bool)
    "per-layer metrics have no bound" true
    (List.exists (fun (s : Diff.metric_spec) -> s.Diff.name = "xwi.step_us" && s.Diff.bound = None) specs);
  let line p50 = result_line [ ("setup_s", 0.01); ("op_p50_ms", p50); ("ops_per_s", 100.) ] in
  let old_dir = write_dir [ ("solve_cold", [ line 8.; ""; line 8.2 ]); ("serve_churn", [ line 1. ]) ] in
  let new_dir = write_dir [ ("solve_cold", [ line 12.; line 12.5 ]); ("serve_churn", [ line 1. ]) ] in
  let old = load_dir_ok old_dir and new_ = load_dir_ok new_dir in
  Alcotest.(check (list (pair string int)))
    "workloads sorted, blank lines skipped"
    [ ("serve_churn", 1); ("solve_cold", 2) ]
    (List.map (fun (w, runs) -> (w, List.length runs)) old);
  let t = Diff.diff specs ~old_label:old_dir ~new_label:new_dir ~old ~new_ in
  check_failures "solve_cold slowed beyond the bound"
    [
      Diff.failure_text
        (Diff.Regression { workload = "solve_cold"; metric = "op_p50_ms" });
    ]
    t;
  let self = Diff.diff specs ~old_label:old_dir ~new_label:old_dir ~old ~new_:old in
  check_failures "self-diff passes" [] self;
  let bad_dir = write_dir [ ("solve_cold", [ line 8.; {|{"correct":true}|} ]) ] in
  (match Diff.load_dir bad_dir with
  | Ok _ -> Alcotest.fail "a line without attempted/failed/metrics loaded"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the line (got %S)" msg)
        true
        (String.ends_with ~suffix:{|line 2: missing or ill-typed "attempted"|} msg));
  match Diff.load_dir (Filename.concat old_dir "absent") with
  | Ok _ -> Alcotest.fail "a missing directory loaded"
  | Error _ -> ()

let test_diff_rendering () =
  let slow = [ untraced 20. 100. ] in
  let t = diff ~old:[ ("solve_cold", baseline) ] ~new_:[ ("solve_cold", slow) ] in
  let md = Diff.to_markdown t in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i =
      i + n <= h && (String.sub haystack i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "markdown names the workload" true
    (contains "## solve_cold" md);
  Alcotest.(check bool) "markdown flags the regression" true
    (contains "**REGRESSION**" md);
  Alcotest.(check bool) "markdown verdict is FAIL" true
    (contains "**Verdict: FAIL**" md);
  (* The JSON rendering must parse with our own reader and carry the
     verdict and every run's values. *)
  match Json.parse (Diff.to_json t) with
  | Error msg -> Alcotest.failf "to_json output does not parse: %s" msg
  | Ok doc ->
      Alcotest.(check bool) "pass is false" true
        (Json.member "pass" doc = Some (Json.Bool false));
      Alcotest.(check (option int)) "one failure" (Some 1)
        (Option.map List.length (Json.obj_list "failures" doc));
      let metrics =
        match Json.obj_list "workloads" doc with
        | Some [ w ] -> Option.value (Json.obj_list "metrics" w) ~default:[]
        | _ -> Alcotest.fail "expected one workload"
      in
      Alcotest.(check (option int)) "every old run's value" (Some 3)
        (Option.bind (List.nth_opt metrics 0) (fun m ->
             Option.map List.length (Json.obj_list "old" m)))

let () =
  Alcotest.run "nf_benchdiff"
    [
      ( "json",
        [
          quick "scalars and escapes" test_json_scalars;
          quick "nested documents" test_json_nested;
          quick "errors carry positions" test_json_errors;
        ] );
      ( "diff",
        [
          quick "verdicts and gating" test_diff_verdicts;
          quick "markdown and json rendering" test_diff_rendering;
          quick "every new run worse beyond the bound gates" test_worse_gates;
          quick "overlapping runs pass" test_overlap_passes;
          quick "per-layer metrics never gate" test_per_layer_never_gates;
          quick "a missing workload or metric gates" test_missing_gates;
          quick "an incorrect new run gates" test_incorrect_gates;
          quick "a higher failed share gates" test_failed_share_gates;
        ] );
    ]
