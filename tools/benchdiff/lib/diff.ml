module Json = Nf_util.Json

type report = {
  path : string;
  rev : string;
  quick : bool;
  jobs_parallel : int;
  total_seconds : float option;
  kernels : (string * float) list;
  experiments : (string * float) list;
  metrics : (string * float) list;
}

let opt_or default = function Some v -> v | None -> default

let load path =
  match Json.parse_file path with
  | Error msg -> Error msg
  | Ok doc -> (
      match Json.member "kernels" doc with
      | None -> Error (path ^ ": not a bench report (no \"kernels\" field)")
      | Some kernels ->
          let num key = Option.bind (Json.member key doc) Json.to_float in
          let experiments =
            Option.bind (Json.member "experiments" doc) Json.to_list
            |> opt_or []
            |> List.filter_map (fun e ->
                   match
                     ( Option.bind (Json.member "name" e) Json.to_str,
                       Option.bind (Json.member "seconds" e) Json.to_float )
                   with
                   | Some name, Some seconds -> Some (name, seconds)
                   | _ -> None)
          in
          let metrics =
            (* The embedded dump is {"metrics": [{name; type; value; ...}]};
               histograms carry buckets instead of a value and are skipped. *)
            Option.bind (Json.member "metrics" doc) (Json.member "metrics")
            |> Fun.flip Option.bind Json.to_list
            |> opt_or []
            |> List.filter_map (fun m ->
                   match
                     ( Option.bind (Json.member "name" m) Json.to_str,
                       Option.bind (Json.member "value" m) Json.to_float )
                   with
                   | Some name, Some value -> Some (name, value)
                   | _ -> None)
          in
          Ok
            {
              path;
              rev =
                opt_or "?" (Option.bind (Json.member "rev" doc) Json.to_str);
              quick =
                (match Json.member "quick" doc with
                | Some (Json.Bool b) -> b
                | _ -> false);
              jobs_parallel =
                (match (num "jobs_parallel", num "jobs") with
                | Some j, _ | None, Some j -> int_of_float j
                | None, None -> 1);
              total_seconds = num "total_seconds";
              kernels = Json.num_members kernels;
              experiments;
              metrics;
            })

type section = Kernel | Experiment | Metric
type verdict = Regression | Improvement | Stable | Added | Removed

type row = {
  section : section;
  name : string;
  old_value : float option;
  new_value : float option;
  delta_pct : float option;
  verdict : verdict;
  gated : bool;
}

type config = {
  kernel_threshold : float;
  time_threshold : float;
  gate_time : bool;
}

let default_config =
  { kernel_threshold = 0.10; time_threshold = 0.25; gate_time = false }

(* higher_better: kernels are rates, experiments are durations. *)
let classify ~higher_better ~threshold ~old_v ~new_v =
  let delta_pct =
    if old_v > 0. then Some ((new_v -. old_v) /. old_v *. 100.) else None
  in
  let verdict =
    match delta_pct with
    | None -> if new_v > old_v then Improvement else Stable
    | Some _ ->
        let worse =
          if higher_better then new_v < old_v *. (1. -. threshold)
          else new_v > old_v *. (1. +. threshold)
        in
        let better =
          if higher_better then new_v > old_v *. (1. +. threshold)
          else new_v < old_v *. (1. -. threshold)
        in
        if worse then Regression else if better then Improvement else Stable
  in
  (delta_pct, verdict)

(* Pair up two (name, value) lists preserving old-report order, with
   new-only entries appended in new-report order. *)
let align old_entries new_entries =
  let matched =
    List.map
      (fun (name, old_v) -> (name, Some old_v, List.assoc_opt name new_entries))
      old_entries
  in
  let added =
    List.filter_map
      (fun (name, new_v) ->
        if List.mem_assoc name old_entries then None
        else Some (name, None, Some new_v))
      new_entries
  in
  matched @ added

let diff_section cfg section old_entries new_entries =
  List.map
    (fun (name, old_value, new_value) ->
      match (old_value, new_value) with
      | Some _, None ->
          {
            section;
            name;
            old_value;
            new_value;
            delta_pct = None;
            verdict = Removed;
            (* A benchmark that disappears is a gate failure for kernels:
               that is how a regression hides from the diff. *)
            gated = (section = Kernel);
          }
      | None, Some _ ->
          {
            section;
            name;
            old_value;
            new_value;
            delta_pct = None;
            verdict = Added;
            gated = false;
          }
      | Some old_v, Some new_v ->
          let delta_pct, verdict =
            match section with
            | Kernel ->
                classify ~higher_better:true ~threshold:cfg.kernel_threshold
                  ~old_v ~new_v
            | Experiment ->
                classify ~higher_better:false ~threshold:cfg.time_threshold
                  ~old_v ~new_v
            | Metric ->
                (* Workload descriptors: report the drift, never judge it. *)
                ( (if old_v > 0. then
                     Some ((new_v -. old_v) /. old_v *. 100.)
                   else None),
                  Stable )
          in
          let gated =
            match section with
            | Kernel -> true
            | Experiment -> cfg.gate_time
            | Metric -> false
          in
          { section; name; old_value; new_value; delta_pct; verdict; gated }
      | None, None -> assert false)
    (align old_entries new_entries)

let diff cfg ~old_report ~new_report =
  diff_section cfg Kernel old_report.kernels new_report.kernels
  @ diff_section cfg Experiment old_report.experiments new_report.experiments
  @ diff_section cfg Metric old_report.metrics new_report.metrics

let row_fails r = r.gated && (r.verdict = Regression || r.verdict = Removed)
let has_regressions rows = List.exists row_fails rows

(* ---- rendering ---- *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let fmt_opt = function Some v -> fmt_value v | None -> "—"
let fmt_delta = function Some d -> Printf.sprintf "%+.1f%%" d | None -> "—"

let verdict_name = function
  | Regression -> "regression"
  | Improvement -> "improvement"
  | Stable -> "stable"
  | Added -> "added"
  | Removed -> "removed"

let section_name = function
  | Kernel -> "kernel"
  | Experiment -> "experiment"
  | Metric -> "metric"

let verdict_md r =
  match r.verdict with
  | Regression when r.gated -> "**REGRESSION**"
  | Removed when r.gated -> "**REMOVED**"
  | Regression -> "regression (not gated)"
  | Improvement -> "improvement"
  | Stable -> "stable"
  | Added -> "added"
  | Removed -> "removed"

let section_table buf title unit rows =
  if rows <> [] then begin
    Buffer.add_string buf (Printf.sprintf "## %s\n\n" title);
    Buffer.add_string buf
      (Printf.sprintf "| name | old (%s) | new (%s) | delta | verdict |\n" unit
         unit);
    Buffer.add_string buf "|---|---:|---:|---:|---|\n";
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "| `%s` | %s | %s | %s | %s |\n" r.name
             (fmt_opt r.old_value) (fmt_opt r.new_value) (fmt_delta r.delta_pct)
             (verdict_md r)))
      rows;
    Buffer.add_char buf '\n'
  end

let to_markdown cfg ~old_report ~new_report rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "# Bench diff: `%s` → `%s`\n\n" old_report.rev
       new_report.rev);
  if old_report.quick <> new_report.quick then
    Buffer.add_string buf
      (Printf.sprintf
         "> **Warning:** comparing a %s run against a %s run — workloads \
          differ, treat deltas as indicative only.\n\n"
         (if old_report.quick then "quick" else "full")
         (if new_report.quick then "quick" else "full"));
  Buffer.add_string buf
    (Printf.sprintf
       "- old: `%s` (rev %s, %s, %d parallel jobs%s)\n- new: `%s` (rev %s, \
        %s, %d parallel jobs%s)\n- gate: kernel drop > %.0f%%%s\n\n"
       old_report.path old_report.rev
       (if old_report.quick then "quick" else "full")
       old_report.jobs_parallel
       (match old_report.total_seconds with
       | Some s -> Printf.sprintf ", %.1fs total" s
       | None -> "")
       new_report.path new_report.rev
       (if new_report.quick then "quick" else "full")
       new_report.jobs_parallel
       (match new_report.total_seconds with
       | Some s -> Printf.sprintf ", %.1fs total" s
       | None -> "")
       (cfg.kernel_threshold *. 100.)
       (if cfg.gate_time then
          Printf.sprintf ", experiment rise > %.0f%%" (cfg.time_threshold *. 100.)
        else ""));
  let of_section s = List.filter (fun r -> r.section = s) rows in
  section_table buf "Kernels" "per sec" (of_section Kernel);
  section_table buf "Experiments" "s" (of_section Experiment);
  section_table buf "Metrics (informational)" "value" (of_section Metric);
  let failures = List.filter row_fails rows in
  (if failures = [] then
     Buffer.add_string buf "**Verdict: PASS** — no gated regressions.\n"
   else begin
     Buffer.add_string buf
       (Printf.sprintf "**Verdict: FAIL** — %d gated regression%s:\n\n"
          (List.length failures)
          (if List.length failures = 1 then "" else "s"));
     List.iter
       (fun r ->
         Buffer.add_string buf
           (Printf.sprintf "- `%s`: %s → %s (%s)\n" r.name
              (fmt_opt r.old_value) (fmt_opt r.new_value)
              (fmt_delta r.delta_pct)))
       failures
   end);
  Buffer.contents buf

let to_json cfg ~old_report ~new_report rows =
  let opt = function Some v -> Json.Num v | None -> Json.Null in
  let int i = Json.Num (float_of_int i) in
  let side r =
    Json.Obj
      [
        ("path", Json.Str r.path);
        ("rev", Json.Str r.rev);
        ("quick", Json.Bool r.quick);
        ("jobs_parallel", int r.jobs_parallel);
        ("total_seconds", opt r.total_seconds);
      ]
  in
  let row r =
    Json.Obj
      [
        ("section", Json.Str (section_name r.section));
        ("name", Json.Str r.name);
        ("old", opt r.old_value);
        ("new", opt r.new_value);
        ("delta_pct", opt r.delta_pct);
        ("verdict", Json.Str (verdict_name r.verdict));
        ("gated", Json.Bool r.gated);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("old", side old_report);
         ("new", side new_report);
         ( "config",
           Json.Obj
             [
               ("kernel_threshold", Json.Num cfg.kernel_threshold);
               ("time_threshold", Json.Num cfg.time_threshold);
               ("gate_time", Json.Bool cfg.gate_time);
             ] );
         ("rows", Json.List (List.map row rows));
         ("regressions", int (List.length (List.filter row_fails rows)));
       ])
  ^ "\n"

let pp_summary ppf rows =
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  Format.fprintf ppf
    "@[<v>%d rows: %d regressions, %d improvements, %d stable, %d added, %d \
     removed@,"
    (List.length rows) (count Regression) (count Improvement) (count Stable)
    (count Added) (count Removed);
  let failures = List.filter row_fails rows in
  if failures = [] then Format.fprintf ppf "PASS: no gated regressions@]"
  else begin
    Format.fprintf ppf "FAIL: %d gated regression(s):@," (List.length failures);
    List.iter
      (fun r ->
        Format.fprintf ppf "  %s %s: %s -> %s (%s)@,"
          (section_name r.section) r.name (fmt_opt r.old_value)
          (fmt_opt r.new_value) (fmt_delta r.delta_pct))
      failures;
    Format.fprintf ppf "@]"
  end
