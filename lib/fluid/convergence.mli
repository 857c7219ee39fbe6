(** Convergence-time measurement (§6.1).

    The paper's definition: after a network event, the convergence time is
    the time until the rates of at least 95% of flows are within 10% of
    the optimal NUM allocation, sustained for at least 5 ms. {!sustained}
    is that rule over a stream of rate samples taken every [period]
    seconds; both substrates apply it. {!measure} drives a fluid scheme
    through it, one sample per iteration, and reports
    [entry iteration * scheme.interval]. The packet driver
    ([Nf_experiments.Psupport]) samples the receivers' EWMA rates every
    20 µs and reports the entry instant minus the filter's rise time
    (§6.1); fluid rates are exact, so they need no such correction. *)

type criteria = {
  within : float;  (** relative rate tolerance; paper: 0.1 *)
  fraction : float;  (** fraction of flows required inside; paper: 0.95 *)
  sustain : float;  (** seconds the condition must hold; paper: 5 ms *)
  max_time : float;  (** give up after this much simulated time *)
}

val sustained :
  criteria ->
  period:float ->
  last:int ->
  target:float array ->
  (int -> float array) ->
  int option
(** [sustained criteria ~period ~last ~target sample] calls [sample i]
    for [i = 0, 1, ...] in order; [sample i] returns the rates at sample
    [i] (it may advance a simulation, and the array is read before the
    next call). Sample [i] is {e inside} when at least
    [criteria.fraction] of the rates are within [criteria.within] of
    [target] (relative tolerance; a target of 0 matches rates below an
    absolute epsilon, a NaN rate is never within, and an empty population
    counts as all within). Returns [Some e] at the first sample [i] that ends a run of
    inside samples [e .. i] with [i - e >= ceil (sustain /. period)],
    calling [sample] no further; [None] once sample [last] has been
    taken without one ([last < 0]: no sample at all).

    The [ceil] takes the rounded quotient as it is, so a ratio that is
    an integer in decimal may round up one more: 50 ms / 16 µs gives
    3126, not 3125. *)

val measure : ?criteria:criteria -> Scheme.t -> target:float array -> float option
(** {!sustained} over the scheme's iterations: sample 0 is the current
    state, each later sample follows one [step], and [last] is
    [ceil (max_time /. interval)]. The scheme is advanced in place and
    stops at the confirming sample. The result is the instant the
    condition {e first} became true of the sustained stretch
    ([entry * interval]: time-to-convergence, not time-plus-sustain),
    or [None] if it did not hold within [max_time]. *)
