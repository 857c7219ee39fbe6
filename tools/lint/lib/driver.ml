(* File walking, parsing, two-stage rule dispatch, baseline handling.
   Everything here is kept deterministic on purpose: directory entries
   are sorted before descending, the final file list is sorted and
   deduplicated, and findings are sorted with [Finding.compare], so two
   runs on different filesystems produce byte-identical reports and
   baseline diffs. *)

let is_ml path = Filename.check_suffix path ".ml"

let skip_dir name =
  name = "_build" || name = "_opam"
  || (String.length name > 0 && name.[0] = '.')

let rec walk acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if skip_dir name then acc else walk acc (Filename.concat path name))
         acc
  else if is_ml path then path :: acc
  else acc

let collect_files roots =
  let files =
    List.fold_left
      (fun acc root ->
        if not (Sys.file_exists root) then
          raise (Sys_error (Printf.sprintf "%s: no such file or directory" root))
        else walk acc root)
      [] roots
  in
  List.sort_uniq String.compare (List.map Config.normalize files)

let parse_implementation path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      Parse.implementation lexbuf)

(* Stage 1: parse + syntactic rules. Stage 2: look up the file's cmt in
   the index and run the typed rules over its typedtree. A file with no
   cmt gets no typed findings, unless [require_cmt] asks for a
   [cmt-missing] diagnostic (CI runs that way so silently-skipped
   coverage can't rot in). *)
let lint_file ?enabled ?cmts ?(require_cmt = false) ~config path =
  let ctx = Rules.make_ctx ?enabled ~config path in
  (match parse_implementation path with
  | str ->
    Rules.check_structure ctx str;
    Rules.check_mli ctx ~mli_exists:(Sys.file_exists (path ^ "i")) str
  | exception exn ->
    let line, col, msg =
      match Location.error_of_exn exn with
      | Some (`Ok err) ->
        let loc = err.Location.main.Location.loc in
        ( loc.Location.loc_start.pos_lnum,
          loc.Location.loc_start.pos_cnum - loc.Location.loc_start.pos_bol,
          Format.asprintf "%t" err.Location.main.Location.txt )
      | _ -> (1, 0, Printexc.to_string exn)
    in
    Rules.add_finding ctx
      (Finding.v ~file:(Config.normalize path) ~line ~col ~rule:"parse-error"
         msg));
  let syntactic = Rules.findings ctx in
  let typed =
    match cmts with
    | None -> []
    | Some idx -> (
      let missing msg =
        if require_cmt then
          [
            Finding.v ~file:(Config.normalize path) ~line:1 ~col:0
              ~rule:"cmt-missing" msg;
          ]
        else []
      in
      match Cmts.find idx path with
      | None ->
        missing
          "no cmt artifact found for this file; the typed stage did not \
           run (build first, or extend --cmt-root)"
      | Some cmt_path -> (
        match Cmts.load cmt_path with
        | Error msg -> missing msg
        | Ok str ->
          let tctx = Typed_rules.make_ctx ?enabled ~config path in
          Typed_rules.check_structure tctx str;
          Typed_rules.findings tctx))
  in
  syntactic @ typed

type report = { findings : Finding.t list; test_only : Finding.t list }

(* The per-file stages, then the whole-program [unused-export] pass over
   every artifact in the index. An artifact the index could not read
   would leave its references out of that pass, so it is a finding. *)
let run ?enabled ?(config = Config.repo_default) ?cmts ?require_cmt ?test_code
    roots =
  let files = collect_files roots in
  let per_file =
    List.concat_map
      (fun f -> lint_file ?enabled ?cmts ?require_cmt ~config f)
      files
  in
  match cmts with
  | None -> { findings = List.sort Finding.compare per_file; test_only = [] }
  | Some idx ->
    let exports = Typed_rules.check_exports ?enabled ?test_code ~config idx files in
    let unreadable =
      List.map
        (fun (path, msg) ->
          Finding.v ~file:(Config.normalize path) ~line:1 ~col:0
            ~rule:"cmt-missing"
            ("unreadable artifact, its references are missing from the \
              unused-export index: " ^ msg))
        (Cmts.unreadable idx)
    in
    {
      findings =
        List.sort Finding.compare (per_file @ exports.unused @ unreadable);
      test_only = exports.test_only;
    }

(* ------------------------------------------------------------------ *)
(* Baseline: one [Finding.baseline_key] per line; '#' comments and blank
   lines ignored. *)

type baseline_result = {
  fresh : Finding.t list;  (* findings not covered by the baseline *)
  baselined : Finding.t list;  (* findings suppressed by the baseline *)
  stale : string list;  (* baseline entries that matched nothing *)
}

let load_baseline path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line ->
          let line = String.trim line in
          let acc =
            if line = "" || line.[0] = '#' then acc else line :: acc
          in
          loop acc
        | exception End_of_file -> List.rev acc
      in
      loop [])

let apply_baseline entries findings =
  let used = Hashtbl.create 16 in
  let fresh, baselined =
    List.fold_left
      (fun (fresh, supp) f ->
        let key = Finding.baseline_key f in
        if List.mem key entries then begin
          Hashtbl.replace used key ();
          (fresh, f :: supp)
        end
        else (f :: fresh, supp))
      ([], []) findings
  in
  let stale = List.filter (fun e -> not (Hashtbl.mem used e)) entries in
  { fresh = List.rev fresh; baselined = List.rev baselined; stale }

let baseline_of_findings findings =
  List.sort_uniq String.compare (List.map Finding.baseline_key findings)

(* Comment lines ('#'-prefixed) of an existing baseline survive an
   --update-baseline rewrite: they carry the reviewers' rationale for
   each accepted debt entry, which regenerating must not destroy. *)
let baseline_comments path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | line ->
            let acc =
              if String.length (String.trim line) > 0
                 && (String.trim line).[0] = '#'
              then line :: acc
              else acc
            in
            loop acc
          | exception End_of_file -> List.rev acc
        in
        loop [])
  end

let default_baseline_header =
  [
    "# nf_lint baseline: accepted findings, one per line.";
    "# Regenerate with: nf_lint --update-baseline <this file> <roots>";
    "# Comment lines are preserved across regeneration.";
  ]

let write_baseline ~path findings =
  let comments =
    match baseline_comments path with
    | [] -> default_baseline_header
    | cs -> cs
  in
  let entries = baseline_of_findings findings in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (fun c -> output_string oc (c ^ "\n")) comments;
      List.iter (fun e -> output_string oc (e ^ "\n")) entries);
  List.length entries
