(** Exponentially-weighted moving average filters.

    {!timed} is a continuous-time filter with time constant [tau]: a
    sample observed [dt] after the previous one is blended with weight
    [1 - exp (-dt / tau)]. This matches the paper's use of an "EWMA
    filter with a time constant" for Swift's rate estimator (ewmaTime)
    and for the 80 µs convergence-measurement filter of §6.1, whose rise
    time to 90% is [ln 10 * tau]. *)

type timed

val timed : tau:float -> timed
(** [timed ~tau] with [tau > 0] (seconds). Starts unset. *)

val timed_update : timed -> now:float -> float -> unit
(** [timed_update f ~now sample] blends [sample] in with weight
    [1 - exp (-(now - t_prev) / tau)]. Out-of-order samples ([now] earlier
    than the previous update) are treated as [dt = 0] (ignored). *)

val timed_is_set : timed -> bool
(** [true] once a sample has been blended in: the allocation-free guard for {!timed_value_exn}. *)

val timed_value : timed -> float option

val timed_value_exn : timed -> float

val rise_time_90 : tau:float -> float
(** Time for the step response to reach 90% of its final value,
    [ln 10 *. tau] — the 185 µs correction of §6.1 for tau = 80 µs. *)
