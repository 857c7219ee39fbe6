(** Specialized float-keyed min-heap of int handles, in
    structure-of-arrays layout.

    The allocation-free priority queue under the simulator's STFQ switch
    queues ([Nf_sim.Queue_disc], keyed by virtual start tag, holding
    pooled packet ids) and the overflow of its calendar event queue
    ([Nf_engine.Sim], keyed by event time, holding event-node indices:
    the events past the calendar's window). Compared with a generic heap
    of boxed records ordered by a [cmp] closure, it stores keys in an
    unboxed [float array] and handles in an [int array], compares with
    raw [<] on floats, and exposes field readers ([top_key], [top]) so
    steady-state push/peek/pop allocates nothing (no [Some], no record).
    It holds no pointers at all, so no store into it runs the write
    barrier: a caller with a payload keeps it in its own table and
    pushes the index.

    Ties on the key break FIFO by an internal per-heap sequence number:
    elements with equal keys pop in push order. The heap is 4-ary — one
    level shallower than a binary heap per 4x elements, which wins on the
    mostly-sorted workloads event queues see.

    Keys must not be NaN (comparisons would be vacuously false and the
    heap order meaningless); pushers enforce this upstream. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> key:float -> int -> unit
(** Insert a handle under [key]. *)

val top_key : t -> float
(** Key of the minimum element.
    @raise Invalid_argument on an empty heap. *)

val top : t -> int
(** Handle of the minimum element, without removing it.
    @raise Invalid_argument on an empty heap. *)

val drop : t -> unit
(** Remove the minimum element.
    @raise Invalid_argument on an empty heap. *)

val pop : t -> int
(** [top] + [drop].
    @raise Invalid_argument on an empty heap. *)

val clear : t -> unit
(** Empty the heap. *)
