(** Append-only time series of (time, value) samples.

    Used to record per-flow rates, queue occupancies and prices during
    simulations, and to render the time-series figures (4b/4c, 10) as
    text. Samples must be appended in non-decreasing time order. *)

type t

val create : unit -> t

val add : t -> time:float -> float -> unit
(** @raise Invalid_argument if [time] precedes the last sample. *)

val length : t -> int

val last : t -> (float * float) option

val to_list : t -> (float * float) list

val value_at : t -> float -> float option
(** Sample-and-hold interpolation: the value of the most recent sample at
    or before the given time; [None] before the first sample. *)

val resample : t -> t0:float -> t1:float -> dt:float -> (float * float) list
(** Sample-and-hold values on the regular grid [t0, t0+dt, ... <= t1];
    points before the first sample are dropped. *)
