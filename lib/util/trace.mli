(** Structured event tracing: a ring-buffered JSONL sink of typed events.

    Every execution layer (the event engine, the packet simulator, the
    fluid schemes, the xWI solver) emits events through a sink; the sink
    filters by event kind, buffers a bounded number of events, and optionally streams them to a JSONL file
    — one JSON object per line, e.g.

    {v {"time":3.2e-05,"kind":"drop","subject":4,"value":1500,"aux":1} v}

    The layer is {e zero-cost when disabled}: hot paths guard every
    emission with {!on}, a mask test that allocates nothing, so a run
    without tracing pays one branch per potential event. The process-wide
    {!default} sink starts as {!null} (everything disabled); the CLI
    installs a real sink for [--trace]. *)

type kind =
  | Enqueue  (** packet accepted by a link queue; subject = link *)
  | Dequeue  (** packet leaves a link queue for the wire; subject = link *)
  | Drop  (** packet rejected by a full queue; subject = link *)
  | EcnMark  (** packet ECN-marked on enqueue; subject = link *)
  | PktSend  (** packet handed to the network by a host; subject = flow *)
  | PktRecv  (** packet delivered to its end host; subject = flow *)
  | RateUpdate  (** receiver-measured rate sample; subject = flow *)
  | PriceUpdate  (** periodic price/fair-rate update; subject = link *)
  | FlowStart  (** sender starts; subject = flow *)
  | FlowDone  (** flow completed; subject = flow; value = fct *)
  | XwiIter  (** one xWI iteration; subject = solver instance *)
  | XwiResidual
      (** per-iteration solver diagnostic (emitted under [--diag]);
          subject = solver instance, time = iteration index, value = max
          relative price/rate residual, aux = max absolute price delta *)
  | XwiNonconverged
      (** an xWI run hit its iteration cap; subject = solver instance,
          time/aux = iterations performed, value = final residual *)

val kind_name : kind -> string
(** Lower-snake name used in the JSONL output ("enqueue", ...,
    "xwi_iter"). *)

type event = {
  time : float;  (** simulated seconds (or iteration time for fluid runs) *)
  kind : kind;
  subject : int;  (** link id or flow id, per the kind *)
  value : float;  (** primary payload (bytes, rate, price, fct, ...) *)
  aux : float;  (** secondary payload (flow id, seq, ...); [nan] if unused *)
}

type t

val null : t
(** The disabled sink: {!on} is always false, {!emit} is a no-op. *)

val make :
  ?capacity:int ->
  ?kinds:kind list ->
  ?path:string ->
  unit ->
  t
(** A live sink. [capacity] (default 65536) bounds the in-memory buffer.
    [kinds] restricts which event kinds are accepted (default: all). With
    [path], events are
    streamed to that file as JSONL whenever the buffer fills and on
    {!close}; without it the buffer is a ring that keeps the most recent
    [capacity] events for in-process inspection ({!events}). *)

val on : t -> kind -> bool
(** [on t k] is true iff the sink accepts kind [k]. Allocation-free; hot
    paths must guard emissions with it. *)

val emit : t -> kind -> subject:int -> time:float -> ?aux:float -> float -> unit
(** [emit t k ~subject ~time v] records an event (subject to the kind
    filter). *)

val emitted : t -> int
(** Events accepted since creation (including ones already flushed or
    overwritten). *)

val events : t -> event list
(** The buffered events, oldest first. For a file-backed sink this is only
    the not-yet-flushed tail. *)

val close : t -> unit
(** {!flush} and close the backing file. The sink stays usable as an
    in-memory ring afterwards. *)

val default : unit -> t
(** The process-wide sink, {!null} until {!set_default}. *)

val set_default : t -> unit
