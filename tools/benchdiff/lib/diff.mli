(** Cross-revision diff of nfbench results.

    A results directory holds one [<workload>.jsonl] per workload, one
    result object per line: the last line that one
    [bash nfbench/run.sh --workload W --seed N ...] printed, i.e.
    [{"correct": _, "attempted": _, "failed": _, "metrics": {NAME:
    {"value": _, "unit": _}, ...}}]. An untraced run carries the
    end-to-end metrics, a traced one the per-layer metrics; a directory
    may mix both.

    Each metric's direction, and each end-to-end metric's bound, come
    from [BENCHMARK.json]. The diff fails when, and only when:
    - for some workload and end-to-end metric, every NEW run is worse
      than every OLD run by more than the metric's bound;
    - OLD has a workload, or a workload's end-to-end metric, that NEW
      lacks;
    - a NEW run reports [correct: false];
    - a workload's failed/attempted share in NEW exceeds OLD's.

    Per-layer metrics are compared the same way (with no bound) and
    reported, but never gate. *)

type better = Lower | Higher

type metric_spec = {
  name : string;
  better : better;
  bound : float option;
      (** [Some b] for an end-to-end metric (relative, e.g. 0.25), [None]
          for a per-layer one *)
}

val load_spec : string -> (metric_spec list, string) result
(** The [end_to_end] then the [per_layer] entries of a
    [BENCHMARK.json], in file order. *)

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** name, value; units dropped *)
}

val load_dir : string -> ((string * run list) list, string) result
(** Every [<workload>.jsonl] in the directory, sorted by workload name,
    runs in line order; blank lines are skipped. *)

type verdict =
  | Worse  (** every NEW run worse than every OLD run beyond the bound *)
  | Better  (** every NEW run better than every OLD run beyond the bound *)
  | Within  (** neither: the runs overlap or sit within the bound *)
  | Missing  (** in OLD runs only *)
  | Added  (** in NEW runs only *)

type row = {
  spec : metric_spec;
  old_values : float list;
  new_values : float list;
  verdict : verdict;
}

type workload = {
  name : string;
  old_runs : run list;
  new_runs : run list;  (** [[]] when NEW lacks the workload *)
  rows : row list;
      (** one per catalogued metric that either side reports, in spec
          order *)
}

type failure =
  | Regression of { workload : string; metric : string }
  | Missing_workload of string
  | Missing_metric of { workload : string; metric : string }
  | Incorrect_run of { workload : string; line : int }
      (** [line] counts the NEW file's runs from 1 *)
  | Failed_share of { workload : string; old_share : float; new_share : float }

type t = {
  old_label : string;
  new_label : string;
  workloads : workload list;  (** OLD's, then NEW-only ones *)
  failures : failure list;
}

val diff :
  metric_spec list ->
  old_label:string ->
  new_label:string ->
  old:(string * run list) list ->
  new_:(string * run list) list ->
  t

val failure_text : failure -> string

val to_markdown : t -> string

val to_json : t -> string
(** The same content, one object: [old], [new], [pass], [failures] (one
    string each) and [workloads] with every run's metric values. *)

val pp_summary : Format.formatter -> t -> unit
(** Each end-to-end metric's medians, then PASS or every failure. *)
