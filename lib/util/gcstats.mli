(** Runtime allocation and GC accounting: "where did the bytes go".

    Three related facilities:

    - {b Per-category allocation accounting.} When {!enabled} (the CLI
      turns it on together with [--profile]), {!Nf_util.Profile.time} and
      the engine's event loop record [Gc.allocated_bytes] deltas per
      interned profile category via {!record}; {!pp_table} prints the
      bytes-by-category table next to Profile's time table.
    - {b Process-wide GC metrics.} {!publish} snapshots [Gc.quick_stat]
      into [nf_gc_*] counters/gauges on a {!Nf_util.Metrics} registry, so
      GC behaviour lands in every metrics export.
    - {b Steady-state allocation audit.} {!bytes_per_iteration} measures
      the exact per-iteration allocation of a closed loop — the runtime
      enforcement of the [nf_lint] hot-alloc rule used by the
      allocation audit (see [Nf_experiments.Alloc_audit]).

    Categories are plain ints so this module has no [Profile] dependency
    (Profile hooks into Gcstats, not vice versa); in practice they are
    {!Nf_util.Profile.cat} handles. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Enable per-category recording. Does not clear prior accumulations;
    call {!reset}. *)

val bytes : unit -> float
(** Bytes allocated by the current domain since process start
    ([Gc.allocated_bytes]; monotone, sub-word exact). The call itself
    allocates one boxed float — irrelevant for the coarse per-category
    deltas, and {!bytes_per_iteration} self-corrects. *)

val record : int -> float -> unit
(** [record cat db] adds [db] allocated bytes and one call to category
    [cat] (unconditionally — callers guard with {!enabled}). Unboxed
    float-array store on the hot path; grows the table on new ids. *)

val reset : unit -> unit
(** Zero all per-category accumulators. *)

val categories : unit -> (int * int * float) list
(** (category id, calls, total bytes), most-allocating first; categories
    with zero recorded calls are omitted. *)

val pp_table : name_of:(int -> string) -> Format.formatter -> unit -> unit
(** The bytes-by-category table (or a placeholder if nothing was
    recorded). [name_of] resolves category ids — pass
    [Nf_util.Profile.cat_name]. *)

val publish : ?registry:Metrics.t -> unit -> unit
(** Snapshot [Gc.quick_stat] into the registry (default
    {!Metrics.global}): counters [nf_gc_minor_collections_total],
    [nf_gc_major_collections_total], [nf_gc_compactions_total],
    [nf_gc_allocated_bytes_total], [nf_gc_promoted_bytes_total] and
    gauges [nf_gc_heap_bytes], [nf_gc_top_heap_bytes]. Counters are
    raised to the process-lifetime totals, so publish is idempotent and
    the counters stay monotone. *)

val bytes_per_iteration : ?warmup:int -> ?iters:int -> (unit -> unit) -> float
(** [bytes_per_iteration f] is the average number of bytes allocated per
    call of [f] in steady state: runs [f] [warmup] times (default 256) to
    reach steady state (lazy growth done, caches warm), then measures the
    [Gc.allocated_bytes] delta over [iters] calls (default 10_000),
    correcting for the probe's own allocation. A truly allocation-free
    kernel measures exactly [0.]. The closure [f] must not capture
    [float ref]s it assigns (each store would box). *)
