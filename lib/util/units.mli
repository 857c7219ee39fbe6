(** Unit conventions and conversions.

    Throughout the code base: time is in {b seconds}, rates/capacities in
    {b bits per second}, sizes in {b bytes} unless a name says otherwise.
    These helpers exist so that literals in experiment code read like the
    paper ("10 Gbps links", "16 µs RTT", "1 MB buffers"). *)

val gbps : float -> float
(** [gbps 10.] = 1e10 bits per second. *)

val usec : float -> float
(** [usec 16.] = 1.6e-5 seconds. *)

val pp_time : Format.formatter -> float -> unit
(** Pretty-print a duration in seconds with an adaptive unit (ns/µs/ms/s). *)

val pp_bytes : Format.formatter -> float -> unit
(** Pretty-print a size in bytes with an adaptive unit (B/KB/MB/GB). *)
