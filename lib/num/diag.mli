(** Opt-in per-iteration xWI solver diagnostics.

    A [t] attaches to one {!Xwi_core.state} (explicitly, through its
    mutable [diag] field, or automatically by the init functions when a
    postmortem directory is {!configure}d — the CLI's
    [nf_run exp --diag DIR]). Each {!Xwi_core.step} on a diagnosed state
    then:

    - snapshots prices/rates before the step ({!begin_iter}),
    - derives residual norms (max relative price/rate change per step,
      plus the l∞/l2 price deltas and the
      worst-residual link), active-link counts, the water-fill round
      count / fill level / saturated-link count from
      {!Maxmin.sparse_workspace},
    - keeps the last K iterations in a ring, tracks the
      iterations-to-ε ladder, and emits an [XwiResidual]
      {!Nf_util.Trace} event.

    On a non-converged run, {!Xwi_core} dumps a postmortem — the ring of
    recent iteration samples plus the worst-residual links — as JSONL
    ({!dump_auto}). A state without a diag pays one [match] per step;
    nothing here is on the undiagnosed hot path. *)

type sample = {
  s_iter : int;  (** 1-based iteration index within this state's life *)
  s_residual : float;
      (** max relative price/rate change over this step *)
  s_price_delta : float;  (** max |Δ price| (l∞) *)
  s_price_l2 : float;  (** l2 norm of the price-delta vector *)
  s_worst_link : int;  (** link with the largest |Δ price|; -1 if none *)
  s_active_links : int;  (** links with a strictly positive price *)
  s_wf_rounds : int;  (** water-fill rounds of this step's max-min solve *)
  s_wf_level : float;  (** final fair-share fill level *)
  s_wf_saturated : int;  (** saturated (bottleneck) links this solve *)
}

type t

val create : ?capacity:int -> n_links:int -> n_flows:int -> unit -> t
(** A diagnostics instance for one solver state shape. [capacity]
    (default 64) bounds the iteration-sample ring. The iterations-to-ε
    ladder's thresholds are [1e-2; 1e-4; 1e-6; 1e-8; 1e-10], and
    [XwiResidual] events go to {!Nf_util.Trace.default}, resolved at
    emission time. *)

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

val iterations : t -> int
(** Iterations observed over the instance's lifetime. *)

val samples : t -> sample list
(** The ring contents, oldest first (at most [capacity] samples). *)

val worst_links : ?n:int -> t -> (int * float) list
(** The [n] (default 8) links with the largest |Δ price| in the last
    observed iteration, delta descending (ties: link id ascending). *)

type report = {
  r_iterations : int;
  r_final_residual : float;  (** residual of the last iteration; [infinity] if none *)
  r_to_eps : (float * int) array;
      (** (ε, first iteration with residual ≤ ε; -1 if never reached) *)
}

val report : t -> report

val report_to_json : report -> string

(** {2 Process-wide configuration}

    The [--diag] CLI switch names a directory; solver states created
    while one is configured auto-attach a diag (a ring of 64 samples),
    and non-converged runs dump postmortems into the directory (at most
    16 files per configuration). *)

val configure : string option -> unit
(** Install ([Some dir]) or clear ([None]) the postmortem directory;
    resets the {!postmortems_written} counter. *)

val attach : n_links:int -> n_flows:int -> t option
(** A fresh instance while a directory is configured, or [None] when
    unconfigured. Called by the {!Xwi_core} init functions. *)

val dump_auto : ?final_residual:float -> t -> converged:bool -> unit
(** {!dump} into the configured directory under a sequential
    [xwi_postmortem_NNNN.jsonl] name; no-op when unconfigured or at the
    file cap. *)

val postmortems_written : unit -> int
(** Postmortem files written since the last {!configure}. *)
