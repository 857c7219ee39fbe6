(* nf_benchdiff — the cross-revision nfbench regression gate.

   Usage: nf_benchdiff [--md FILE] [--json FILE] OLD_DIR NEW_DIR

   Each directory holds one <workload>.jsonl of nfbench result lines;
   metric directions and bounds come from ./BENCHMARK.json, so run it
   from the repository root. Exits 0 when nothing gates, 1 when the diff
   fails (see Diff), 2 on usage or parse errors, so CI can tell "the
   code got slower" from "the tool could not run". *)

module Diff = Nf_benchdiff_lib.Diff

let usage =
  "nf_benchdiff [--md FILE] [--json FILE] OLD_DIR NEW_DIR\n\
   Diff two directories of nfbench result lines (<workload>.jsonl) against\n\
   the bounds in ./BENCHMARK.json; exit 1 when the diff fails, 2 on errors.\n\n\
   Options:"

let () =
  let md_out = ref "" in
  let json_out = ref "" in
  let positional = ref [] in
  let spec =
    [
      ("--md", Arg.Set_string md_out, "FILE  write a markdown report");
      ("--json", Arg.Set_string json_out, "FILE  write a JSON report");
    ]
  in
  let fail msg =
    prerr_endline ("nf_benchdiff: " ^ msg);
    exit 2
  in
  (match Arg.parse spec (fun a -> positional := a :: !positional) usage with
  | () -> ()
  | exception Arg.Bad msg ->
      prerr_string msg;
      exit 2);
  let old_dir, new_dir =
    match List.rev !positional with
    | [ o; n ] -> (o, n)
    | _ ->
        prerr_endline (Arg.usage_string spec usage);
        fail "expected exactly two result directories"
  in
  let ok = function Ok v -> v | Error msg -> fail msg in
  let specs = ok (Diff.load_spec "BENCHMARK.json") in
  let old = ok (Diff.load_dir old_dir) in
  if old = [] then fail (old_dir ^ " holds no <workload>.jsonl");
  let new_ = ok (Diff.load_dir new_dir) in
  let t = Diff.diff specs ~old_label:old_dir ~new_label:new_dir ~old ~new_ in
  let write path contents =
    if path <> "" then
      Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  in
  write !md_out (Diff.to_markdown t);
  write !json_out (Diff.to_json t);
  Format.printf "%a@." Diff.pp_summary t;
  exit (if t.Diff.failures = [] then 0 else 1)
