(** Deterministic file walk + parse + two-stage rule dispatch +
    baseline.

    The walk sorts directory entries before descending and the merged
    file list and findings are sorted, so output is byte-identical
    across filesystems (what makes a committed baseline diffable). *)

(** Expand roots (files or directories) into the sorted, deduplicated
    list of [.ml] files, skipping [_build]/[_opam]/dot-directories.
    Raises [Sys_error] on a nonexistent root. *)
val collect_files : string list -> string list

(** Lint one file: the syntactic stage always runs; the typed stage
    runs when [cmts] holds a matching cmt artifact. A file that fails
    to parse yields a single [parse-error] finding rather than an
    exception; a file with no cmt yields a [cmt-missing] finding when
    [require_cmt] is set (default: typed stage silently skipped). *)
val lint_file :
  ?enabled:(string -> bool) ->
  ?cmts:Cmts.t ->
  ?require_cmt:bool ->
  config:Config.t ->
  string ->
  Finding.t list

type report = {
  findings : Finding.t list;  (** sorted with {!Finding.compare} *)
  test_only : Finding.t list;
      (** exports only test code uses: informational, never gating *)
}

(** Lint every [.ml] under the roots, then run the whole-program
    [unused-export] pass ({!Typed_rules.check_exports}) over every
    artifact in [cmts]. An unreadable artifact in [cmts] is a
    [cmt-missing] finding. [config] defaults to {!Config.repo_default}. *)
val run :
  ?enabled:(string -> bool) ->
  ?config:Config.t ->
  ?cmts:Cmts.t ->
  ?require_cmt:bool ->
  ?test_code:(string -> bool) ->
  string list ->
  report

type baseline_result = {
  fresh : Finding.t list;  (** findings not covered by the baseline *)
  baselined : Finding.t list;  (** findings suppressed by the baseline *)
  stale : string list;  (** baseline entries that matched nothing *)
}

(** Baseline entries from a file: one {!Finding.baseline_key} per line,
    ['#'] comments and blank lines skipped. *)
val load_baseline : string -> string list

val apply_baseline : string list -> Finding.t list -> baseline_result

(** The sorted, deduplicated baseline representation of a finding set
    (what [--update-baseline] writes). *)
val baseline_of_findings : Finding.t list -> string list

(** Rewrite the baseline at [path] from the given findings, preserving
    any ['#'] comment lines of the existing file (or emitting a default
    header for a new one). Returns the number of entries written. *)
val write_baseline : path:string -> Finding.t list -> int
