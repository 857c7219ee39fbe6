(** The allocation engine: the socket-free core of [nf_run serve].

    One engine owns a delta-capable {!Nf_num.Problem} over a fixed link
    set (topology is chosen at startup; {e flows} churn), applies
    arrival/departure/capacity events, and re-solves in {e epochs}: all
    events since the previous epoch are committed in one batch and
    [Xwi_core.solve] {e warm-starts} xWI from the previous epoch's state
    (its converged prices, or their Newton polish) — near the old
    fixpoint this converges in a small fraction of a cold start's
    iterations, which is the entire point of an always-on service (the
    [churn] experiment and nfbench's [serve_churn] workload quantify it).
    A cold epoch, with no state to carry, starts from [Xwi_core.init]:
    the Newton polish of zero prices where it applies (at most 256 busy
    links, [Log]/[Power] single-path flows), otherwise xWI's seed.

    The engine is what the socket server drives, what the tests exercise
    without any I/O, and what nfbench's [serve_churn] workload times. Wall-clock time-to-new-allocation is recorded per epoch
    (ring of recent samples + [nf_serve_alloc_seconds] histogram);
    everything else about an epoch is deterministic. *)

type t

val create :
  ?tol:float ->
  ?max_iters:int ->
  caps:float array ->
  unit ->
  t
(** An idle engine over the given link capacities. Each epoch is one
    [Xwi_core.solve] of the previous epoch's state (none, so the
    polished cold start of [Xwi_core.init], for the first epoch and
    after the problem emptied), checking the certificate at
    every iteration; [tol] (default 1e-6) and [max_iters] (default
    50_000) are its KKT-residual stopping bounds (per-iteration deltas
    stall at numerical noise near a warm fixpoint). *)

val problem : t -> Nf_num.Problem.t

(** {2 Events} — cheap ledger mutations; nothing is solved until
    {!solve_epoch} (or a read that needs fresh rates). *)

val add_flow : t -> utility:Nf_num.Utility.t -> paths:int array list -> int
(** Returns the new group's stable gid.
    @raise Invalid_argument on an invalid path. *)

val remove_flow : t -> int -> unit
(** @raise Invalid_argument on an unknown or departed gid. *)

val set_cap : t -> int -> float -> unit

val pending_events : t -> int
(** Events applied since the last epoch. *)

(** {2 Epochs} *)

type epoch = {
  epoch : int;  (** 1-based epoch number *)
  events : int;  (** events batched into this epoch *)
  iterations : int;  (** xWI iterations to re-converge *)
  converged : bool;
  warm : bool;  (** started from the previous epoch's prices *)
  elapsed : float;  (** wall seconds, event application excluded *)
  n_groups : int;
  n_flows : int;
}

val solve_epoch : t -> epoch
(** Commit pending events and re-solve. Warm-starts from the previous
    epoch's prices whenever one exists; the first epoch (and any epoch
    after the problem emptied) is cold. An empty problem yields a
    trivial converged epoch of 0 iterations. *)

val group_rate : t -> int -> float option
(** Aggregate rate of the given gid in the current allocation. Solves
    pending events first (rates are meaningless across uncommitted
    deltas). [None] for a departed/unknown gid. *)

val rates : t -> float array
(** The current allocation (dense flow order); empty before the first
    epoch. Solves pending events first. Shared, read-only. *)

val prices : t -> float array
(** Current per-link prices; zeros before the first epoch. The live
    array: the next epoch's warm restart takes it over and overwrites
    it, so copy it to keep it. *)

(** {2 Accounting} *)

type stats = {
  epochs : int;
  total_events : int;
  warm_epochs : int;
  cold_epochs : int;
  warm_iters : int;  (** total iterations across warm epochs *)
  cold_iters : int;
  p50_latency : float;  (** seconds; 0 before the first epoch *)
  p99_latency : float;
  mean_latency : float;
}

val stats : t -> stats
(** Latency percentiles are over the most recent {!latency_window}
    epochs. *)
