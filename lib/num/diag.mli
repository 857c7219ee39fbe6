(** Opt-in per-iteration xWI solver diagnostics.

    A [t] attaches to one {!Xwi_core.state}: the init functions give
    each new state one while a postmortem directory is {!configure}d (the
    CLI's [nf_run exp --diag DIR]). Each {!Xwi_core.step} on a diagnosed
    state then:

    - snapshots prices/rates before the step ({!begin_iter}),
    - derives residual norms (max relative price/rate change per step,
      plus the l∞/l2 price deltas and the
      worst-residual link), active-link counts, the water-fill round
      count / fill level / saturated-link count from
      {!Maxmin.sparse_workspace},
    - keeps the last 64 iterations in a ring, tracks the
      iterations-to-ε ladder (thresholds [1e-2; 1e-4; 1e-6; 1e-8;
      1e-10]), and emits an [XwiResidual] event to
      {!Nf_util.Trace.default}.

    On a non-converged run, {!Xwi_core} dumps a postmortem — the ring of
    recent iteration samples plus the worst-residual links — as JSONL
    ({!dump_auto}). A state without a diag pays one [match] per step;
    nothing here is on the undiagnosed hot path. *)

type t

val begin_iter : t -> prices:float array -> rates:float array -> unit
(** Snapshot the pre-step prices and rates (called by {!Xwi_core.step}). *)

val observe :
  t ->
  prices:float array ->
  rates:float array ->
  wf_rounds:int ->
  wf_level:float ->
  wf_saturated:int ->
  unit
(** Record one completed iteration: post-step [prices]/[rates] are
    compared against the {!begin_iter} snapshots. *)

(** {2 Process-wide configuration}

    The [--diag] CLI switch names a directory; solver states created
    while one is configured auto-attach a diag, and non-converged runs
    dump postmortems into the directory (at most 16 files per
    configuration). *)

val configure : string option -> unit
(** Install ([Some dir]) or clear ([None]) the postmortem directory;
    resets the {!postmortems_written} counter. *)

val attach : n_links:int -> n_flows:int -> t option
(** A fresh instance while a directory is configured, or [None] when
    unconfigured. Called by the {!Xwi_core} init functions. *)

val dump_auto : ?final_residual:float -> t -> converged:bool -> unit
(** Write the postmortem into the configured directory under a sequential
    [xwi_postmortem_NNNN.jsonl] name; no-op when unconfigured or at the
    file cap. The JSONL holds a [meta] line ([converged], [iterations],
    [final_residual] — [final_residual] when given, as {!Xwi_core}
    gives its worst KKT residual, else the last step change —,
    [n_links], [n_flows]), one [iter] line per ring sample (oldest first:
    residual, price deltas, worst link, active links, water-fill
    rounds/level/saturated links), a [worst_links] line (the 8 largest
    last-iteration |Δ price|) and a [to_eps] line (the iterations-to-ε
    report: [iterations], [final_step_change] — the last iteration's
    max relative price/rate change, not a KKT residual — and the
    ladder). *)

val postmortems_written : unit -> int
(** Postmortem files written since the last {!configure}. *)
