(* Tests for the nf_lint rules library.

   Two fixture pools drive the two stages: lint_fixtures/ holds
   parse-only sources for the syntactic rules (linted, never compiled),
   lint_fixtures_typed/ is a real compiled library whose cmt artifacts
   feed the typed rules (linking it into this binary is what guarantees
   the cmts exist by the time the tests run). *)

module Config = Nf_lint_rules.Config
module Cmts = Nf_lint_rules.Cmts
module Driver = Nf_lint_rules.Driver
module Finding = Nf_lint_rules.Finding
module Rules = Nf_lint_rules.Rules

(* dune runtest runs the binary inside test/; dune exec runs it from the
   workspace root. Accept either. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

let typed_dir =
  if Sys.file_exists "lint_fixtures_typed" then "lint_fixtures_typed"
  else Filename.concat "test" "lint_fixtures_typed"

let typed_fixture name = Filename.concat typed_dir name

(* The fixture library's cmt artifacts, built by dune alongside this
   binary (the library is a link-time dependency). *)
let typed_cmts =
  lazy
    (Cmts.index
       ~roots:
         [
           (* under dune runtest (cwd = _build/default/test) *)
           Filename.concat typed_dir ".nf_lint_fixtures_typed.objs";
           (* under dune exec from the workspace root *)
           Filename.concat
             (Filename.concat "_build/default" typed_dir)
             ".nf_lint_fixtures_typed.objs";
         ])

(* Lint one fixture with only [rule] enabled, under the strict config. *)
let lint_rule rule name =
  Driver.lint_file ~enabled:(String.equal rule) ~config:Config.strict
    (fixture name)

let lint_typed ?(config = Config.strict) rule name =
  Driver.lint_file ~enabled:(String.equal rule) ~config
    ~cmts:(Lazy.force typed_cmts) ~require_cmt:true (typed_fixture name)

let rules_of findings = List.map (fun f -> f.Finding.rule) findings

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_stage lint rule ~bad ~good ~expect () =
  let findings = lint rule bad in
  Alcotest.(check (list string))
    (Printf.sprintf "every finding in %s is %s" bad rule)
    (List.init expect (fun _ -> rule))
    (rules_of findings);
  List.iter
    (fun f ->
      Alcotest.(check bool) "line is positive" true (f.Finding.line > 0))
    findings;
  Alcotest.(check (list string))
    (Printf.sprintf "%s clean for %s" good rule)
    []
    (List.map Finding.to_string (lint rule good))

let check_flags = check_stage lint_rule

let check_typed = check_stage (lint_typed ?config:None)

let test_determinism =
  check_flags "determinism" ~bad:"bad_determinism.ml"
    ~good:"good_determinism.ml" ~expect:4

let test_exn_swallow =
  check_flags "exn-swallow" ~bad:"bad_exn_swallow.ml"
    ~good:"good_exn_swallow.ml" ~expect:3

let test_json_by_hand =
  check_flags "json-by-hand" ~bad:"bad_json_by_hand.ml"
    ~good:"good_json_by_hand.ml" ~expect:3

let test_mli_missing () =
  let missing =
    lint_rule "mli-missing" "bad_determinism.ml" |> rules_of
  in
  Alcotest.(check (list string)) "no .mli next to fixture" [ "mli-missing" ]
    missing;
  Alcotest.(check (list string))
    "with_mli.mli satisfies the rule" []
    (rules_of (lint_rule "mli-missing" "with_mli.ml"))

(* ---------------- typed stage ---------------- *)

let test_typed_float_compare =
  check_typed "float-compare" ~bad:"tbad_float.ml" ~good:"tgood_float.ml"
    ~expect:3

let test_typed_hot_alloc =
  check_typed "hot-alloc" ~bad:"tbad_hot.ml" ~good:"tgood_hot.ml" ~expect:4

let test_typed_hot_minmax =
  check_typed "hot-alloc" ~bad:"tbad_hot_minmax.ml" ~good:"tgood_hot_minmax.ml"
    ~expect:3

let test_typed_hot_store =
  check_typed "hot-alloc" ~bad:"tbad_hot_store.ml" ~good:"tgood_hot_store.ml"
    ~expect:2

let test_typed_hot_hashtbl =
  check_typed "hot-alloc" ~bad:"tbad_hot_hashtbl.ml"
    ~good:"tgood_hot_hashtbl.ml" ~expect:6

let test_typed_hot_barrier =
  check_typed "hot-barrier" ~bad:"tbad_hot_barrier.ml"
    ~good:"tgood_hot_barrier.ml" ~expect:6

let test_domain_safety =
  check_typed "domain-safety" ~bad:"tbad_domain.ml" ~good:"tgood_domain.ml"
    ~expect:5

let test_domain_waiver () =
  (* A justified waiver is silent; a bare-name waiver is exactly one
     finding (the missing justification), and that finding is not
     itself suppressible. *)
  let findings = lint_typed "domain-safety" "tallow_domain.ml" in
  Alcotest.(check (list string))
    "only the unjustified waiver fires" [ "domain-safety" ]
    (rules_of findings);
  match findings with
  | [ f ] ->
    Alcotest.(check bool) "message points at the missing justification" true
      (contains f.Finding.msg "justification")
  | _ -> Alcotest.fail "expected exactly one finding"

let test_stale_generation =
  check_typed "stale-generation" ~bad:"tbad_stale.ml" ~good:"tgood_stale.ml"
    ~expect:2

let test_serve_blocking =
  check_typed "serve-blocking" ~bad:"serve_select_bad.ml"
    ~good:"serve_select_good.ml" ~expect:2

let test_cmt_missing () =
  (* A file with no cmt artifact: typed stage silently skipped by
     default, a cmt-missing finding under --require-cmt. *)
  let quiet =
    Driver.lint_file
      ~enabled:(fun _ -> false)
      ~config:Config.strict
      ~cmts:(Lazy.force typed_cmts) (fixture "bad_determinism.ml")
  in
  Alcotest.(check (list string)) "silently skipped" [] (rules_of quiet);
  let strict =
    Driver.lint_file
      ~enabled:(fun _ -> false)
      ~config:Config.strict
      ~cmts:(Lazy.force typed_cmts) ~require_cmt:true
      (fixture "bad_determinism.ml")
  in
  Alcotest.(check (list string)) "cmt-missing under require_cmt"
    [ "cmt-missing" ] (rules_of strict)

(* ---------------- unused-export ---------------- *)

(* The fixture pool lives under test/, so the repo's own predicate would
   call every fixture test code; here only ttest_* files are. *)
let fixture_test_code path =
  String.starts_with ~prefix:"ttest_" (Filename.basename path)

let lint_exports files =
  Driver.run
    ~enabled:(String.equal "unused-export")
    ~config:Config.strict ~cmts:(Lazy.force typed_cmts)
    ~test_code:fixture_test_code
    (List.map typed_fixture files)

(* A finding's baseline key with its file checked and stripped. *)
let keyed_in file (f : Finding.t) =
  Alcotest.(check string) "finding's file" (typed_fixture file) f.file;
  Printf.sprintf "[%s] %s" f.rule f.msg

let test_unused_export () =
  let r =
    lint_exports
      [ "texports.ml"; "texports_packed.ml"; "texports_included.ml" ]
  in
  (* [direct] (named directly), [via_alias] (named through [module E =
     Texports]), [waived] (justified waiver) and the packed and included
     modules' values are clean. *)
  Alcotest.(check (list string))
    "unused and the bare waiver are the only findings"
    [
      "[unused-export] Texports.unused is exported but no other unit uses \
       it; delete it, or drop it from the interface if its own unit does";
      "[unused-export] unused-export waiver carries no justification; write \
       [@nf.allow \"unused-export -- why this export stays\"]";
    ]
    (List.map (keyed_in "texports.mli") r.Driver.findings);
  Alcotest.(check (list string))
    "a test-only export is informational"
    [
      "[unused-export] Texports.only_tests is used only by tests \
       (test/lint_fixtures_typed/ttest_exports.ml)";
    ]
    (List.map (keyed_in "texports.mli") r.Driver.test_only)

(* Under the default predicate every fixture user is test code (they all
   live under test/): the packed module's exports are informational
   only, so nothing reaches the findings nf_lint's exit code is computed
   from. *)
let test_unused_export_test_only () =
  let r =
    Driver.run
      ~enabled:(String.equal "unused-export")
      ~config:Config.strict ~cmts:(Lazy.force typed_cmts)
      [ typed_fixture "texports_packed.ml" ]
  in
  Alcotest.(check (list string)) "no findings" []
    (List.map Finding.to_string r.Driver.findings);
  Alcotest.(check (list string))
    "both values informational"
    [
      "[unused-export] Texports_packed.a is used only by tests \
       (test/lint_fixtures_typed/texports_user.ml)";
      "[unused-export] Texports_packed.b is used only by tests \
       (test/lint_fixtures_typed/texports_user.ml)";
    ]
    (List.map (keyed_in "texports_packed.mli") r.Driver.test_only)

let test_unreadable_cmt () =
  let dir = Filename.temp_file "nf_lint_cmts" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let bad = Filename.concat dir "broken.cmt" in
  Out_channel.with_open_bin bad (fun oc -> output_string oc "not a cmt");
  let idx = Cmts.index ~roots:[ dir ] in
  let r = Driver.run ~config:Config.strict ~cmts:idx [ fixture "allow_ok.ml" ] in
  Sys.remove bad;
  Sys.rmdir dir;
  Alcotest.(check int) "kept as unreadable" 1 (List.length (Cmts.unreadable idx));
  Alcotest.(check bool) "reported as a finding" true
    (List.exists
       (fun f -> f.Finding.rule = "cmt-missing" && contains f.Finding.file "broken.cmt")
       r.Driver.findings)

(* ---------------- suppression ---------------- *)

let test_allow_suppresses () =
  (* Every rule enabled: the [@nf.allow] annotations must silence all of
     the deliberate violations in allow_ok.ml. *)
  let findings = Driver.lint_file ~config:Config.strict (fixture "allow_ok.ml") in
  Alcotest.(check (list string)) "allow_ok.ml lints clean" []
    (List.map Finding.to_string findings)

let test_allow_justification_parsing () =
  (* The extended payload grammar: rule names before --, free text
     after. *)
  let payload = "domain-safety float-compare -- writes are chunk-local" in
  let attr : Parsetree.attribute =
    {
      attr_name = Location.mknoloc "nf.allow";
      attr_payload =
        PStr
          [
            Ast_helper.Str.eval
              (Ast_helper.Exp.constant (Ast_helper.Const.string payload));
          ];
      attr_loc = Location.none;
    }
  in
  match Rules.allow_of_attr attr with
  | None -> Alcotest.fail "nf.allow attribute not recognised"
  | Some a ->
    Alcotest.(check (list string))
      "rules" [ "domain-safety"; "float-compare" ] a.Rules.rules;
    Alcotest.(check (option string))
      "justification" (Some "writes are chunk-local") a.Rules.justification

let test_wallclock_exemption () =
  (* Same source, exempt path policy: the wall-clock reads stop being
     findings but Random.self_init and Hashtbl.iter remain. *)
  let exempt =
    { Config.strict with Config.wallclock_exempt = (fun _ -> true) }
  in
  let findings =
    Driver.lint_file ~enabled:(String.equal "determinism") ~config:exempt
      (fixture "bad_determinism.ml")
  in
  Alcotest.(check int) "only non-wallclock findings remain" 2
    (List.length findings)

(* ---------------- driver ---------------- *)

let test_output_deterministic () =
  let run () =
    Driver.run ~config:Config.strict
      ~cmts:(Lazy.force typed_cmts)
      [ fixture_dir; typed_dir ]
  in
  let a = (run ()).Driver.findings and b = (run ()).Driver.findings in
  Alcotest.(check (list string))
    "repeat runs are byte-identical"
    (List.map Finding.to_string a)
    (List.map Finding.to_string b);
  let sorted = List.sort Finding.compare a in
  Alcotest.(check (list string))
    "findings come back sorted"
    (List.map Finding.to_string sorted)
    (List.map Finding.to_string a)

let test_collect_files_sorted () =
  let files = Driver.collect_files [ fixture_dir; typed_dir ] in
  Alcotest.(check bool) "found the fixtures" true (List.length files >= 15);
  let sorted = List.sort_uniq compare files in
  Alcotest.(check (list string)) "walk is sorted and deduplicated" sorted files;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f ^ " ends in .ml") true
        (Filename.check_suffix f ".ml"))
    files

let test_baseline_roundtrip () =
  let findings =
    Driver.lint_file ~enabled:(String.equal "determinism")
      ~config:Config.strict
      (fixture "bad_determinism.ml")
  in
  let keys = Driver.baseline_of_findings findings in
  let r = Driver.apply_baseline keys findings in
  Alcotest.(check int) "all findings baselined" (List.length findings)
    (List.length r.Driver.baselined);
  Alcotest.(check (list string)) "nothing fresh" []
    (List.map Finding.to_string r.Driver.fresh);
  Alcotest.(check (list string)) "nothing stale" [] r.Driver.stale;
  let r' = Driver.apply_baseline ("nosuch.ml [determinism] ghost" :: keys) findings in
  Alcotest.(check (list string))
    "unmatched entries reported stale"
    [ "nosuch.ml [determinism] ghost" ]
    r'.Driver.stale;
  let r'' = Driver.apply_baseline [] findings in
  Alcotest.(check int) "empty baseline suppresses nothing"
    (List.length findings)
    (List.length r''.Driver.fresh)

let test_baseline_preserves_comments () =
  let tmp = Filename.temp_file "nf_lint_baseline" ".txt" in
  let oc = open_out tmp in
  output_string oc
    "# reviewer note: tolerated until the solver rewrite lands\n\
     old.ml [determinism] gone finding\n\
     # second note, below an entry\n";
  close_out oc;
  let findings =
    Driver.lint_file ~enabled:(String.equal "determinism")
      ~config:Config.strict
      (fixture "bad_determinism.ml")
  in
  let n = Driver.write_baseline ~path:tmp findings in
  Alcotest.(check int) "entry count" (List.length (Driver.baseline_of_findings findings)) n;
  let ic = open_in tmp in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Sys.remove tmp;
  let comments = List.filter (fun l -> String.length l > 0 && l.[0] = '#') lines in
  Alcotest.(check (list string))
    "both comment lines preserved, in order"
    [
      "# reviewer note: tolerated until the solver rewrite lands";
      "# second note, below an entry";
    ]
    comments;
  Alcotest.(check bool) "stale entry dropped" false
    (List.exists (fun l -> l = "old.ml [determinism] gone finding") lines);
  let entries = List.filter (fun l -> l <> "" && l.[0] <> '#') lines in
  Alcotest.(check (list string))
    "entries are the fresh findings, sorted"
    (Driver.baseline_of_findings findings)
    entries

let test_parse_error_is_finding () =
  let tmp = Filename.temp_file "nf_lint_fixture" ".ml" in
  let oc = open_out tmp in
  output_string oc "let = in";
  close_out oc;
  let findings = Driver.lint_file ~config:Config.strict tmp in
  Sys.remove tmp;
  Alcotest.(check (list string)) "parse failure becomes a finding"
    [ "parse-error" ] (rules_of findings)

let test_json () =
  let f =
    Finding.v ~file:"lib/a.ml" ~line:3 ~col:7 ~rule:"float-compare"
      {|poly "=" on	floats|}
  in
  Alcotest.(check string)
    "escaped object"
    {|{"file":"lib/a.ml","line":3,"col":7,"rule":"float-compare","msg":"poly \"=\" on\tfloats","baseline":"fresh"}|}
    (Finding.to_json ~baseline_status:"fresh" f)

let test_catalog () =
  Alcotest.(check (list string))
    "rule catalog"
    [
      "determinism";
      "exn-swallow";
      "mli-missing";
      "json-by-hand";
      "float-compare";
      "hot-alloc";
      "hot-barrier";
      "domain-safety";
      "stale-generation";
      "serve-blocking";
      "unused-export";
    ]
    Rules.rule_ids;
  let stage_of id =
    (List.find (fun m -> m.Rules.id = id) Rules.catalog).Rules.stage
  in
  Alcotest.(check bool) "determinism is syntactic" true
    (stage_of "determinism" = Rules.Syntactic);
  Alcotest.(check bool) "domain-safety is typed" true
    (stage_of "domain-safety" = Rules.Typed);
  Alcotest.(check bool) "float-compare moved to the typed stage" true
    (stage_of "float-compare" = Rules.Typed)

let () =
  Alcotest.run "lint"
    [
      ( "syntactic",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "exn-swallow" `Quick test_exn_swallow;
          Alcotest.test_case "mli-missing" `Quick test_mli_missing;
          Alcotest.test_case "json-by-hand" `Quick test_json_by_hand;
          Alcotest.test_case "catalog" `Quick test_catalog;
        ] );
      ( "typed",
        [
          Alcotest.test_case "float-compare" `Quick test_typed_float_compare;
          Alcotest.test_case "hot-alloc" `Quick test_typed_hot_alloc;
          Alcotest.test_case "hot-alloc: Float.max/min" `Quick
            test_typed_hot_minmax;
          Alcotest.test_case "hot-alloc: boxed float stores" `Quick
            test_typed_hot_store;
          Alcotest.test_case "hot-alloc: stdlib Hashtbl" `Quick
            test_typed_hot_hashtbl;
          Alcotest.test_case "hot-barrier" `Quick test_typed_hot_barrier;
          Alcotest.test_case "domain-safety" `Quick test_domain_safety;
          Alcotest.test_case "domain-safety waiver" `Quick test_domain_waiver;
          Alcotest.test_case "stale-generation" `Quick test_stale_generation;
          Alcotest.test_case "serve-blocking" `Quick test_serve_blocking;
          Alcotest.test_case "cmt-missing" `Quick test_cmt_missing;
          Alcotest.test_case "unreadable cmt" `Quick test_unreadable_cmt;
          Alcotest.test_case "unused-export" `Quick test_unused_export;
          Alcotest.test_case "unused-export: test-only is informational"
            `Quick test_unused_export_test_only;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "nf.allow" `Quick test_allow_suppresses;
          Alcotest.test_case "allow justification grammar" `Quick
            test_allow_justification_parsing;
          Alcotest.test_case "wallclock exemption" `Quick
            test_wallclock_exemption;
        ] );
      ( "driver",
        [
          Alcotest.test_case "deterministic output" `Quick
            test_output_deterministic;
          Alcotest.test_case "sorted walk" `Quick test_collect_files_sorted;
          Alcotest.test_case "baseline roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "baseline comments" `Quick
            test_baseline_preserves_comments;
          Alcotest.test_case "parse error" `Quick test_parse_error_is_finding;
          Alcotest.test_case "json findings" `Quick test_json;
        ] );
    ]
