(** Convergence-time measurement (§6.1).

    The paper's definition: after a network event, the convergence time is
    the time until the rates of at least 95% of flows are within 10% of
    the optimal NUM allocation, sustained for at least 5 ms. This module
    applies that definition to a fluid scheme, measuring time as
    [iterations * scheme.interval]. (The paper additionally subtracts the
    measurement filter's rise time from packet-level measurements; fluid
    rates are exact, so no correction is needed.) *)

type criteria = {
  within : float;  (** relative rate tolerance; paper: 0.1 *)
  fraction : float;  (** fraction of flows required inside; paper: 0.95 *)
  sustain : float;  (** seconds the condition must hold; paper: 5 ms *)
  max_time : float;  (** give up after this much simulated time *)
}

val fraction_within :
  target:float array -> within:float -> float array -> float
(** Fraction of flows whose rate is within the relative tolerance of the
    target (targets of 0 match rates below an absolute epsilon). *)

type outcome = {
  time : float option;
    (** first time the criterion held and then stayed held for [sustain];
        [None] if it never did within [max_time] *)
  iterations_run : int;
}

val measure :
  ?criteria:criteria -> Scheme.t -> target:float array -> outcome
(** Steps the scheme until convergence (plus the sustain window) or
    [max_time]. The scheme is advanced in place. The reported time is the
    instant the condition {e first} became true of the eventually-sustained
    stretch (i.e. time-to-convergence, not time-plus-sustain). *)
