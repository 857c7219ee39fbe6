(* nf_lint: the repo's static-analysis pass. See DESIGN.md "Static
   analysis" for the two-stage architecture, the rule catalog and the
   suppression story.

   Exit codes: 0 clean, 1 findings (or stale baseline entries under
   --baseline-strict), 2 usage/IO error. *)

module Driver = Nf_lint_rules.Driver
module Finding = Nf_lint_rules.Finding
module Rules = Nf_lint_rules.Rules
module Cmts = Nf_lint_rules.Cmts
module Json = Nf_util.Json

let usage =
  "nf_lint [options] PATH...\n\
   Lint every .ml under the given files/directories. The syntactic\n\
   stage always runs; the typed stage runs for files whose cmt\n\
   artifact is found under a --cmt-root (default: _build/default\n\
   when it exists).\n\n\
   Options:"

let () =
  let baseline = ref "" in
  let update_baseline = ref false in
  let baseline_strict = ref false in
  let rules = ref "" in
  let list_rules = ref false in
  let quiet = ref false in
  let json = ref "" in
  let cmt_roots = ref [] in
  let no_typed = ref false in
  let require_cmt = ref false in
  let roots = ref [] in
  let spec =
    [
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE suppress findings listed in FILE (one 'file [rule] message' \
         per line, '#' comments)" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the --baseline file from the current findings (comment \
         lines are preserved) and exit 0" );
      ( "--baseline-strict",
        Arg.Set baseline_strict,
        " exit nonzero when the baseline has stale entries (CI mode)" );
      ( "--rules",
        Arg.Set_string rules,
        "LIST comma-separated rule ids to enable (default: all)" );
      ( "--json",
        Arg.Set_string json,
        "FILE write a machine-readable report (one object per finding, \
         fresh and baselined) to FILE" );
      ( "--cmt-root",
        Arg.String (fun r -> cmt_roots := r :: !cmt_roots),
        "DIR scan DIR for .cmt artifacts feeding the typed stage \
         (repeatable; default: _build/default if present)" );
      ( "--no-typed",
        Arg.Set no_typed,
        " skip the typed stage even when cmt artifacts are available" );
      ( "--require-cmt",
        Arg.Set require_cmt,
        " emit a cmt-missing finding for files the typed stage could not \
         cover" );
      ("--list-rules", Arg.Set list_rules, " print the rule catalog and exit");
      ("--quiet", Arg.Set quiet, " suppress the summary line on stderr");
      ("-q", Arg.Set quiet, " same as --quiet");
    ]
  in
  (try Arg.parse spec (fun r -> roots := r :: !roots) usage
   with Arg.Bad msg ->
     prerr_string msg;
     exit 2);
  if !list_rules then begin
    List.iter
      (fun m ->
        Printf.printf "%-16s [%s] %s\n" m.Rules.id
          (match m.Rules.stage with
          | Rules.Syntactic -> "syntactic"
          | Rules.Typed -> "typed")
          m.Rules.summary)
      Rules.catalog;
    exit 0
  end;
  let roots = List.rev !roots in
  if roots = [] then begin
    prerr_endline "nf_lint: no paths given (try: nf_lint lib bin tools examples)";
    exit 2
  end;
  let enabled =
    if !rules = "" then fun _ -> true
    else begin
      let ids =
        String.split_on_char ',' !rules |> List.filter (fun s -> s <> "")
      in
      List.iter
        (fun id ->
          if not (List.mem id Rules.rule_ids) then begin
            Printf.eprintf "nf_lint: unknown rule %S (see --list-rules)\n" id;
            exit 2
          end)
        ids;
      fun r -> List.mem r ids || r = "parse-error" || r = "cmt-missing"
    end
  in
  let cmts =
    if !no_typed then None
    else begin
      let cmt_roots =
        match List.rev !cmt_roots with
        | [] -> if Sys.file_exists "_build/default" then [ "_build/default" ] else []
        | rs -> rs
      in
      match cmt_roots with
      | [] -> None
      | rs ->
        let idx = Cmts.index ~roots:rs in
        if Cmts.size idx = 0 && !require_cmt then
          Printf.eprintf
            "nf_lint: no cmt artifacts under %s (typed stage will report \
             cmt-missing)\n"
            (String.concat ", " rs);
        Some idx
    end
  in
  match Driver.run ~enabled ?cmts ~require_cmt:!require_cmt roots with
  | exception Sys_error msg ->
    Printf.eprintf "nf_lint: %s\n" msg;
    exit 2
  | { Driver.findings; test_only } ->
    if !update_baseline then begin
      if !baseline = "" then begin
        prerr_endline "nf_lint: --update-baseline requires --baseline FILE";
        exit 2
      end;
      let n = Driver.write_baseline ~path:!baseline findings in
      Printf.eprintf "nf_lint: wrote %d baseline entr%s to %s\n" n
        (if n = 1 then "y" else "ies")
        !baseline;
      exit 0
    end;
    let result =
      if !baseline = "" then
        { Driver.fresh = findings; baselined = []; stale = [] }
      else
        match Driver.load_baseline !baseline with
        | entries -> Driver.apply_baseline entries findings
        | exception Sys_error msg ->
          Printf.eprintf "nf_lint: %s\n" msg;
          exit 2
    in
    if !json <> "" then begin
      let report =
        Json.Obj
          [
            ("version", Json.Num 1.);
            ( "findings",
              Json.List
                (List.map (Finding.json ~baseline_status:"fresh") result.fresh
                @ List.map (Finding.json ~baseline_status:"baselined") result.baselined) );
            ("stale_baseline", Json.List (List.map (fun e -> Json.Str e) result.stale));
            ( "test_only",
              Json.List
                (List.map (Finding.json ~baseline_status:"informational") test_only) );
          ]
      in
      Out_channel.with_open_text !json (fun oc ->
          output_string oc (Json.to_string report);
          output_char oc '\n')
    end;
    List.iter (fun f -> print_endline (Finding.to_string f)) result.fresh;
    List.iter
      (fun e -> Printf.eprintf "nf_lint: stale baseline entry: %s\n" e)
      result.stale;
    if not !quiet then
      Printf.eprintf "nf_lint: %d finding(s)%s%s%s\n"
        (List.length result.fresh)
        (if result.baselined <> [] then
           Printf.sprintf " (%d baselined)" (List.length result.baselined)
         else "")
        (if result.stale <> [] then
           Printf.sprintf " (%d stale baseline entr%s)"
             (List.length result.stale)
             (if List.length result.stale = 1 then "y" else "ies")
         else "")
        (if test_only <> [] then
           Printf.sprintf "; %d export(s) used only by tests (informational)"
             (List.length test_only)
         else "");
    let fail =
      result.fresh <> [] || (!baseline_strict && result.stale <> [])
    in
    exit (if fail then 1 else 0)
