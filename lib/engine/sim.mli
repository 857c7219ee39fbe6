(** Discrete-event simulation core.

    A simulator holds a virtual clock and a priority queue of events;
    events scheduled at equal times fire in scheduling order (FIFO
    tie-breaking by sequence number — essential for protocol determinism).
    All of [nf_sim] runs on top of this.

    {b Hot path.} The event queue is a calendar queue (R. Brown, CACM
    1988): a wheel of 1024 buckets, each 2^-26 s (~14.9 ns) wide, so
    the window ahead of the cursor spans ~15.3 us. A bucket is a list
    sorted by (time, scheduling order) in a struct-of-arrays node pool;
    an event at or past the window's end (+inf included) waits in an
    overflow {!Nf_util.Fheap}. A pop takes the smaller of the first
    non-empty bucket's head and the overflow's top. The cursor only
    moves forward, and jumps when the wheel is empty, so skipping empty
    buckets is amortised O(1) per event: at most the cursor's total
    advance plus 1024 per overflow pop made while the wheel holds events.
    The constants fit the packet simulator's scheduling delays
    ([packet_websearch], seed 1: p50 1.2 us, p99 3.2 us; 0.23% of
    schedules land past the window, nearly all timers of 1 ms and more).
    The clock is an unboxed float cell. {!schedule_cat} and
    {!schedule_after_cat} are inlined at their call sites (their error,
    pool-growth and overflow branches are out of line), so a float time
    stays unboxed across the library boundary: scheduling a
    preallocated handler and dispatching it measures 0 bytes per event
    on every path (the [sim_schedule_dispatch], [sim_overflow] and
    [sim_same_time_tie] kernels of the allocation audit,
    [test/test_alloc.exe]), and {!run} itself allocates nothing.
    Handlers should be allocated once and rescheduled, not built per
    event. Every scheduling call takes an interned category ({!cat}):
    intern it once, at module or component initialisation, not per
    event.

    {b Observability.} Every event carries the category it was
    scheduled under; when {!Nf_util.Profile.enabled}, the event loop
    accounts each handler's wall time under its category, which is how
    [nf_run ... --profile] builds its "where did the time go" table. The
    loop also feeds the global metrics registry:
    [nf_engine_events_total] is batched per {!run}, and the
    [nf_engine_heap_depth_max] high-water gauge of pending events is
    sampled every few hundred schedules so the idle-metrics path costs
    nothing per event.
    {!Nf_util.Profile.enabled} is read once per {!run}, not per event. *)

type t

type cat = Nf_util.Profile.cat
(** Interned profiling-category handle. *)

val cat : string -> cat
(** [cat name] interns [name] (idempotent; do it once at module init). *)

val create : unit -> t

val now : t -> float
(** Current virtual time, seconds. Starts at 0. *)

val schedule_cat : t -> cat:cat -> at:float -> (unit -> unit) -> unit
(** Allocation-free scheduling primitive (inlined at its call sites).
    @raise Invalid_argument if [at] is in the past (the message carries
    both the requested time and the current clock) or NaN. *)

val schedule_after_cat : t -> cat:cat -> delay:float -> (unit -> unit) -> unit
(** [schedule_after_cat t ~cat ~delay f] =
    [schedule_cat t ~cat ~at:(now t +. delay) f]; [delay] must be
    non-negative and not NaN. *)

val periodic_cat :
  t -> cat:cat -> ?start:float -> interval:float -> (unit -> unit) -> unit
(** Fire [f] every [interval] seconds, starting at [start] (default: one
    interval from now), until the simulation stops.
    @raise Invalid_argument if [interval] is not positive. *)

val run : ?until:float -> t -> unit
(** Process events in time order until the queue is empty, [until] is
    reached (events at exactly [until] still fire), or {!stop} is called.
    The clock ends at the last event's time, or at [until] if given and
    later; it never moves back. *)

val stop : t -> unit
(** Makes {!run} return after the current event. Can be called from inside
    an event handler. *)

val events_processed : t -> int
(** Total events dispatched by completed {!run} calls (settled when [run]
    returns, not per event). *)

val pending : t -> int
