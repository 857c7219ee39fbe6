(** Growable FIFO ring of ints.

    The simulator's in-flight packet containers ([Nf_sim.Network]'s
    per-link wire and [Nf_sim.Queue_disc]'s FIFO disciplines) hold pooled
    packet ids in one: a push or pop stores and loads an int, so it
    allocates nothing in the steady state and runs no write barrier. The
    capacity is a power of two and doubles when a push finds the ring
    full. *)

type t

val create : unit -> t
(** An empty ring (initial capacity 16). *)

val length : t -> int

val push : t -> int -> unit
(** Append at the tail. *)

val pop : t -> int
(** Remove and return the head (the oldest element).
    @raise Invalid_argument on an empty ring. *)
