module Json = Nf_util.Json

type better = Lower | Higher
type metric_spec = { name : string; better : better; bound : float option }

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let ( let* ) = Result.bind

(* Map [f] over [xs], stopping at the first error. *)
let map_result f xs =
  List.fold_right
    (fun x acc ->
      let* tl = acc in
      let* y = f x in
      Ok (y :: tl))
    xs (Ok [])

let field what key get doc =
  match Option.bind (Json.member key doc) get with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed %S" what key)

let load_spec path =
  let* doc = Json.parse_file path in
  let entry ~gated e =
    let* name = field path "name" Json.to_str e in
    let* better =
      match Json.obj_str "better" e with
      | Some "lower" -> Ok Lower
      | Some "higher" -> Ok Higher
      | _ -> Error (Printf.sprintf "%s: metric %s has no lower/higher" path name)
    in
    let* bound =
      if gated then Result.map Option.some (field path "bound" Json.to_float e)
      else Ok None
    in
    Ok { name; better; bound }
  in
  let* e2e = field path "end_to_end" Json.to_list doc in
  let* layer = field path "per_layer" Json.to_list doc in
  let* e2e = map_result (entry ~gated:true) e2e in
  let* layer = map_result (entry ~gated:false) layer in
  Ok (e2e @ layer)

let parse_run what line =
  let* doc = Result.map_error (fun m -> what ^ ": " ^ m) (Json.parse line) in
  let* correct =
    match Json.member "correct" doc with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error (what ^ ": missing or ill-typed \"correct\"")
  in
  let* attempted = field what "attempted" Json.to_int doc in
  let* failed = field what "failed" Json.to_int doc in
  let* metrics =
    match Json.member "metrics" doc with
    | Some (Json.Obj ms) ->
        map_result
          (fun (name, m) ->
            let* v = field (what ^ ": metric " ^ name) "value" Json.to_float m in
            Ok (name, v))
          ms
    | _ -> Error (what ^ ": missing or ill-typed \"metrics\"")
  in
  Ok { correct; attempted; failed; metrics }

let load_file path =
  match In_channel.with_open_bin path In_channel.input_lines with
  | exception Sys_error msg -> Error msg
  | lines ->
      List.mapi (fun i l -> (i + 1, l)) lines
      |> List.filter (fun (_, l) -> String.trim l <> "")
      |> map_result (fun (i, l) ->
             parse_run (Printf.sprintf "%s: line %d" path i) l)

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort String.compare
      |> map_result (fun f ->
             let* runs = load_file (Filename.concat dir f) in
             Ok (Filename.chop_suffix f ".jsonl", runs))

type verdict = Worse | Better | Within | Missing | Added

type row = {
  spec : metric_spec;
  old_values : float list;
  new_values : float list;
  verdict : verdict;
}

type workload = {
  name : string;
  old_runs : run list;
  new_runs : run list;
  rows : row list;
}

type failure =
  | Regression of { workload : string; metric : string }
  | Missing_workload of string
  | Missing_metric of { workload : string; metric : string }
  | Incorrect_run of { workload : string; line : int }
  | Failed_share of { workload : string; old_share : float; new_share : float }

type t = {
  old_label : string;
  new_label : string;
  workloads : workload list;
  failures : failure list;
}

let lowest = List.fold_left Float.min Float.infinity
let highest = List.fold_left Float.max Float.neg_infinity

(* Worse (Better) only when the two sets of runs are separated by more
   than the bound: the best NEW run is worse than the worst OLD run
   beyond it. Anything short of that is noise the bound admits. *)
let separation spec ~old_values ~new_values =
  let b = Option.value spec.bound ~default:0. in
  let old_lo = lowest old_values and old_hi = highest old_values in
  let new_lo = lowest new_values and new_hi = highest new_values in
  (* [above x y]: x exceeds y by more than the bound; [below] likewise. *)
  let above x y = x > y *. (1. +. b) and below x y = x < y *. (1. -. b) in
  match spec.better with
  | Lower ->
      if above new_lo old_hi then Worse
      else if below new_hi old_lo then Better
      else Within
  | Higher ->
      if below new_hi old_lo then Worse
      else if above new_lo old_hi then Better
      else Within

let values name runs = List.filter_map (fun r -> List.assoc_opt name r.metrics) runs

let compare_metric ~old_runs ~new_runs (spec : metric_spec) =
  match (values spec.name old_runs, values spec.name new_runs) with
  | [], [] -> None
  | old_values, [] -> Some { spec; old_values; new_values = []; verdict = Missing }
  | [], new_values -> Some { spec; old_values = []; new_values; verdict = Added }
  | old_values, new_values ->
      Some
        {
          spec;
          old_values;
          new_values;
          verdict = separation spec ~old_values ~new_values;
        }

(* Runs, failed ops, attempted ops, incorrect runs. *)
let account runs =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  ( List.length runs,
    sum (fun r -> r.failed),
    sum (fun r -> r.attempted),
    List.length (List.filter (fun r -> not r.correct) runs) )

let share runs =
  let _, failed, attempted, _ = account runs in
  if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted

let workload_failures w =
  if w.old_runs <> [] && w.new_runs = [] then [ Missing_workload w.name ]
  else
    let metric r =
      match (r.verdict, r.spec.bound) with
      | Worse, Some _ -> Some (Regression { workload = w.name; metric = r.spec.name })
      | Missing, Some _ ->
          Some (Missing_metric { workload = w.name; metric = r.spec.name })
      | _ -> None
    in
    let incorrect =
      List.concat
        (List.mapi
           (fun i r ->
             if r.correct then [] else [ Incorrect_run { workload = w.name; line = i + 1 } ])
           w.new_runs)
    in
    let old_share = share w.old_runs and new_share = share w.new_runs in
    List.filter_map metric w.rows
    @ incorrect
    @
    if new_share > old_share then
      [ Failed_share { workload = w.name; old_share; new_share } ]
    else []

let diff specs ~old_label ~new_label ~old ~new_ =
  let names =
    List.map fst old
    @ List.filter (fun n -> not (List.mem_assoc n old)) (List.map fst new_)
  in
  let workloads =
    List.map
      (fun name ->
        let runs side = Option.value (List.assoc_opt name side) ~default:[] in
        let old_runs = runs old and new_runs = runs new_ in
        {
          name;
          old_runs;
          new_runs;
          rows = List.filter_map (compare_metric ~old_runs ~new_runs) specs;
        })
      names
  in
  {
    old_label;
    new_label;
    workloads;
    failures = List.concat_map workload_failures workloads;
  }

(* ---- rendering ---- *)

let median = function
  | [] -> Float.nan
  | vs -> Nf_util.Stats.median (Array.of_list vs)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let fmt_delta r =
  let o = median r.old_values and n = median r.new_values in
  if r.old_values = [] || r.new_values = [] || Float.equal o 0. then "—"
  else Printf.sprintf "%+.1f%%" ((n -. o) /. o *. 100.)

let fmt_side = function
  | [] -> "—"
  | vs ->
      Printf.sprintf "%s [%s, %s]" (fmt_value (median vs))
        (fmt_value (lowest vs)) (fmt_value (highest vs))

let better_name = function Lower -> "lower" | Higher -> "higher"

let verdict_name = function
  | Worse -> "worse"
  | Better -> "better"
  | Within -> "within"
  | Missing -> "missing"
  | Added -> "added"

let failure_text = function
  | Regression { workload; metric } ->
      Printf.sprintf "%s %s: every new run is worse than every old run beyond the bound"
        workload metric
  | Missing_workload w -> Printf.sprintf "%s: no new runs" w
  | Missing_metric { workload; metric } ->
      Printf.sprintf "%s %s: no new run reports it" workload metric
  | Incorrect_run { workload; line } ->
      Printf.sprintf "%s: new run %d reports correct: false" workload line
  | Failed_share { workload; old_share; new_share } ->
      Printf.sprintf "%s: failed/attempted rose from %.4g to %.4g" workload
        old_share new_share

let to_markdown t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.bprintf buf fmt in
  add "# nfbench diff: `%s` → `%s`\n\n" t.old_label t.new_label;
  add
    "An end-to-end metric gates when every new run is worse than every old \
     run by more than its `BENCHMARK.json` bound. Per-layer metrics are \
     compared with no bound and never gate. Values: median [min, max] over \
     the runs.\n\n";
  let table title rows =
    if rows <> [] then begin
      add "%s\n\n| metric | better | bound | old | new | Δ median | verdict |\n" title;
      add "|---|---|---:|---:|---:|---:|---|\n";
      List.iter
        (fun r ->
          let verdict =
            match (r.verdict, r.spec.bound) with
            | Worse, Some _ -> "**REGRESSION**"
            | Missing, Some _ -> "**MISSING**"
            | v, _ -> verdict_name v
          in
          add "| `%s` | %s | %s | %s | %s | %s | %s |\n" r.spec.name
            (better_name r.spec.better)
            (match r.spec.bound with
            | Some b -> Printf.sprintf "%.0f%%" (b *. 100.)
            | None -> "—")
            (fmt_side r.old_values) (fmt_side r.new_values) (fmt_delta r)
            verdict)
        rows;
      add "\n"
    end
  in
  List.iter
    (fun w ->
      add "## %s\n\n" w.name;
      let side label runs =
        let n, failed, attempted, incorrect = account runs in
        add "- %s: %d run%s, %d/%d ops failed, %d incorrect\n" label n
          (if n = 1 then "" else "s")
          failed attempted incorrect
      in
      side "old" w.old_runs;
      side "new" w.new_runs;
      add "\n";
      let e2e, layer = List.partition (fun r -> Option.is_some r.spec.bound) w.rows in
      table "End-to-end:" e2e;
      table "Per-layer (informational):" layer)
    t.workloads;
  (match t.failures with
  | [] -> add "**Verdict: PASS**\n"
  | fs ->
      add "**Verdict: FAIL**\n\n";
      List.iter (fun f -> add "- %s\n" (failure_text f)) fs);
  Buffer.contents buf

let to_json t =
  let nums vs = Json.List (List.map (fun v -> Json.Num v) vs) in
  let int i = Json.Num (float_of_int i) in
  let side runs =
    let n, failed, attempted, incorrect = account runs in
    Json.Obj
      [
        ("runs", int n);
        ("failed", int failed);
        ("attempted", int attempted);
        ("incorrect", int incorrect);
      ]
  in
  let row r =
    Json.Obj
      [
        ("name", Json.Str r.spec.name);
        ("better", Json.Str (better_name r.spec.better));
        ("bound", match r.spec.bound with Some b -> Json.Num b | None -> Json.Null);
        ("old", nums r.old_values);
        ("new", nums r.new_values);
        ("verdict", Json.Str (verdict_name r.verdict));
      ]
  in
  let workload w =
    Json.Obj
      [
        ("name", Json.Str w.name);
        ("old", side w.old_runs);
        ("new", side w.new_runs);
        ("metrics", Json.List (List.map row w.rows));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("old", Json.Str t.old_label);
         ("new", Json.Str t.new_label);
         ("pass", Json.Bool (t.failures = []));
         ("failures", Json.List (List.map (fun f -> Json.Str (failure_text f)) t.failures));
         ("workloads", Json.List (List.map workload t.workloads));
       ])
  ^ "\n"

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun w ->
      List.iter
        (fun r ->
          if Option.is_some r.spec.bound then
            Format.fprintf ppf "%s %s: %s -> %s (%s) %s@," w.name r.spec.name
              (fmt_side r.old_values) (fmt_side r.new_values) (fmt_delta r)
              (verdict_name r.verdict))
        w.rows)
    t.workloads;
  match t.failures with
  | [] -> Format.fprintf ppf "PASS@]"
  | fs ->
      Format.fprintf ppf "FAIL:@,";
      List.iter (fun f -> Format.fprintf ppf "  %s@," (failure_text f)) fs;
      Format.fprintf ppf "@]"
