(** Wall-clock profiling hooks: "where did the time go".

    A process-wide accumulator of (category -> call count, total seconds).
    Profiling is off by default; when off, {!time} calls its thunk
    directly and the event loop pays a single branch per event. The CLI
    turns it on for [--profile] and prints {!pp_table} after the run.

    The engine's event loop accounts each handler under its scheduling
    category ([Nf_engine.Sim.schedule_cat ~cat]); coarse-grained phases
    (oracle solves, xWI runs) wrap themselves in {!time}.

    Categories are interned to integer {!cat} handles: hot paths intern
    once at module init and pass the handle, so the per-event cost when
    profiling is two flat-array updates (no string hashing). *)

type cat = int
(** An interned category handle (a plain [int] so it can ride in the
    event queue's unboxed aux slot). Only values returned by {!intern}
    are valid handles. *)

val intern : string -> cat
(** Intern a category name (idempotent; thread-safe). *)

val cat_name : cat -> string

val record_cat : cat -> float -> unit
(** [record_cat cat dt] adds one call of [dt] seconds to [cat]
    (unconditionally — callers guard with {!enabled}). *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Enabling does not clear previous accumulations; call {!reset}. *)

val reset : unit -> unit

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)

val time : string -> (unit -> 'a) -> 'a
(** [time cat f] runs [f ()], accounting its wall time under [cat] when
    profiling is enabled (also on exceptions). When {!Gcstats.enabled}
    additionally holds, the allocated-bytes delta of [f] is recorded
    under the same category via {!Gcstats.record}. *)

val categories : unit -> (string * int * float) list
(** (category, calls, total seconds), most expensive first. *)

val pp_table : Format.formatter -> unit -> unit
(** The per-category time table (or a placeholder line if nothing was
    recorded). *)
