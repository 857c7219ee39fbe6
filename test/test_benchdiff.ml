(* Tests for the bench regression gate: the JSON reader (Nf_util.Json)
   as benchdiff uses it, and the report diff/verdict model behind
   tools/benchdiff. *)

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
      Alcotest.(check (list (pair string (float 0.))))
        "num_members skips non-numeric"
        [ ("a", 1.); ("b", 2.5) ]
        (Json.num_members kernels)
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
(* Diff verdicts *)

let write_report ~rev kernels experiments =
  let path = Filename.temp_file ("bench_" ^ rev) ".json" in
  let oc = open_out path in
  let field (n, v) = Printf.sprintf "\"%s\": %.17g" n v in
  let exp (n, s) =
    Printf.sprintf "{\"name\": \"%s\", \"seconds\": %.17g, \"attempts\": 1}" n s
  in
  Printf.fprintf oc
    {|{"rev": "%s", "quick": false, "jobs_parallel": 4, "total_seconds": 1.5,
       "kernels": {%s}, "experiments": [%s]}|}
    rev
    (String.concat ", " (List.map field kernels))
    (String.concat ", " (List.map exp experiments));
  close_out oc;
  path

let load_ok path =
  match Diff.load path with
  | Ok r -> r
  | Error msg -> Alcotest.failf "load %s: %s" path msg

let find rows section name =
  match
    List.find_opt
      (fun r -> r.Diff.section = section && r.Diff.name = name)
      rows
  with
  | Some r -> r
  | None -> Alcotest.failf "missing row %s" name

let check_verdict what expected (r : Diff.row) =
  Alcotest.(check string) what
    (match expected with
    | Diff.Regression -> "regression"
    | Diff.Improvement -> "improvement"
    | Diff.Stable -> "stable"
    | Diff.Added -> "added"
    | Diff.Removed -> "removed")
    (match r.Diff.verdict with
    | Diff.Regression -> "regression"
    | Diff.Improvement -> "improvement"
    | Diff.Stable -> "stable"
    | Diff.Added -> "added"
    | Diff.Removed -> "removed")

let test_diff_verdicts () =
  let old_path =
    write_report ~rev:"aaaa"
      [ ("k_drop", 1000.); ("k_ok", 1000.); ("k_up", 1000.); ("k_gone", 50.) ]
      [ ("e_slow", 10.); ("e_ok", 10.) ]
  in
  let new_path =
    write_report ~rev:"bbbb"
      [ ("k_drop", 800.); ("k_ok", 950.); ("k_up", 1300.); ("k_new", 7.) ]
      [ ("e_slow", 14.); ("e_ok", 10.5) ]
  in
  let old_report = load_ok old_path in
  let new_report = load_ok new_path in
  Alcotest.(check string) "rev parsed" "aaaa" old_report.Diff.rev;
  Alcotest.(check int) "jobs_parallel parsed" 4 old_report.Diff.jobs_parallel;
  let cfg = Diff.default_config in
  let rows = Diff.diff cfg ~old_report ~new_report in
  check_verdict "-20% kernel regresses" Diff.Regression
    (find rows Diff.Kernel "k_drop");
  check_verdict "-5% kernel within threshold" Diff.Stable
    (find rows Diff.Kernel "k_ok");
  check_verdict "+30% kernel improves" Diff.Improvement
    (find rows Diff.Kernel "k_up");
  check_verdict "missing kernel flagged" Diff.Removed
    (find rows Diff.Kernel "k_gone");
  check_verdict "new kernel is an addition" Diff.Added
    (find rows Diff.Kernel "k_new");
  Alcotest.(check bool) "removed kernel gates" true
    (find rows Diff.Kernel "k_gone").Diff.gated;
  Alcotest.(check bool) "added kernel does not gate" false
    (find rows Diff.Kernel "k_new").Diff.gated;
  check_verdict "+40% experiment seconds regress" Diff.Regression
    (find rows Diff.Experiment "e_slow");
  check_verdict "+5% experiment stable" Diff.Stable
    (find rows Diff.Experiment "e_ok");
  Alcotest.(check bool) "experiment time not gated by default" false
    (find rows Diff.Experiment "e_slow").Diff.gated;
  Alcotest.(check bool) "gated regressions present" true
    (Diff.has_regressions rows);
  (* With time gating on, the slow experiment also gates. *)
  let gated_rows =
    Diff.diff { cfg with Diff.gate_time = true } ~old_report ~new_report
  in
  Alcotest.(check bool) "gate-time gates experiments" true
    (find gated_rows Diff.Experiment "e_slow").Diff.gated;
  (* Self-diff is clean. *)
  let self = Diff.diff cfg ~old_report ~new_report:old_report in
  Alcotest.(check bool) "self-diff has no regressions" false
    (Diff.has_regressions self);
  Sys.remove old_path;
  Sys.remove new_path

let test_diff_rendering () =
  let old_path = write_report ~rev:"aaaa" [ ("k", 1000.) ] [ ("e", 1.) ] in
  let new_path = write_report ~rev:"bbbb" [ ("k", 500.) ] [ ("e", 1.) ] in
  let old_report = load_ok old_path in
  let new_report = load_ok new_path in
  let cfg = Diff.default_config in
  let rows = Diff.diff cfg ~old_report ~new_report in
  let md = Diff.to_markdown cfg ~old_report ~new_report rows in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i =
      i + n <= h && (String.sub haystack i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "markdown flags the regression" true
    (contains "**REGRESSION**" md);
  Alcotest.(check bool) "markdown verdict is FAIL" true
    (contains "**Verdict: FAIL**" md);
  (* The JSON rendering must parse with our own reader and carry the
     regression count. *)
  let json = Diff.to_json cfg ~old_report ~new_report rows in
  (match Json.parse json with
  | Error msg -> Alcotest.failf "to_json output does not parse: %s" msg
  | Ok doc ->
      Alcotest.(check (option (float 0.)))
        "regression count" (Some 1.)
        (Option.bind (Json.member "regressions" doc) Json.to_float));
  Sys.remove old_path;
  Sys.remove new_path

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
        ] );
    ]
