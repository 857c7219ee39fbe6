(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload in this process, on one domain, checks its outputs,
   and prints the result object as the last line of standard output. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
   the per-layer ones from a traced pass, whose spans are written to
   .nfbench/<workload>-seed<N>.spans.tsv. Exit status 1 means a
   correctness check failed (the result line says correct: false). *)

let usage () =
  prerr_endline
    "usage: main.exe --workload serve_churn|solve_cold|packet_websearch --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := int_of_string_opt v;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (String.equal v "1");
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (Nfbench.Workloads.find !workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0 ->
    let dir = ".nfbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let spans_out = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.tsv" !workload seed) in
    let o = w.Nfbench.Workloads.run ~tiny:false ~seconds ~seed ~trace ~spans_out in
    List.iter (fun p -> prerr_endline ("check failed: " ^ p)) o.Nfbench.Outcome.problems;
    print_endline (Nfbench.Outcome.fingerprint_line o);
    print_endline (Nfbench.Outcome.to_json o);
    if not (Nfbench.Outcome.correct o) then exit 1
  | _ -> usage ()
