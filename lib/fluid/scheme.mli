(** The common interface of fluid (iteration-level) rate-control schemes.

    A fluid scheme advances in synchronous rounds of [interval] seconds
    (the price/rate-update interval of the real protocol) and exposes the
    flow rates it would allocate. The fluid abstraction strips packet-level
    noise — queueing jitter, measurement error, feedback staleness — and
    isolates exactly the iterative dynamics the paper analyzes (xWI's
    Eqs. 7–11, DGD's Eqs. 3/14, RCP*'s Eqs. 15–16), which govern
    convergence speed. The packet-level realizations live in [nf_sim].

    Schemes keep {e per-link} state (prices, fair rates, queues) that
    survives changes to the flow population: {!rebind} swaps in a new
    {!Nf_num.Problem.t} over the same links, which is how dynamic
    workloads (flow arrivals/departures) are driven. *)

type t = {
  name : string;
  interval : float;  (** seconds of simulated time per {!field-step} *)
  step : unit -> unit;  (** advance one iteration *)
  rates : unit -> float array;
    (** current per-(sub-)flow rates; the array belongs to the caller
        (fresh or stable snapshot, never mutated by later steps) *)
  rates_view : unit -> float array;
    (** the scheme's {e live} rate array: no copy, read-only, valid only
        until the next {!field-step} or {!field-rebind}. The per-iteration
        observation path (convergence measurement, dynamic drains) uses
        this; callers that store rates must use {!field-rates} *)
  rebind : Nf_num.Problem.t -> unit;
    (** replace the flow population; link count must be unchanged *)
  observe_remaining : float array -> unit;
    (** inform the scheme of per-group remaining bytes (used by
        size-aware allocators like {!Srpt}); no-op for price-based
        schemes *)
}

val nop_observe : float array -> unit

val path_line_rate : Nf_num.Problem.t -> int -> float
(** The smallest capacity on flow [i]'s path: the rate cap of the
    rate-based schemes, DGD and RCP*, whose senders cannot exceed their
    slowest link. *)

val baseline :
  name:string ->
  unit_name:string ->
  interval:float ->
  rates_of:(Nf_num.Problem.t -> float array -> float array) ->
  update:(caps:float array -> loads:float array -> queues:float array -> unit) ->
  float array ->
  Nf_num.Problem.t ->
  t
(** The fluid realization of a rate-based baseline, DGD or RCP*, over the
    per-link values [links] (prices or fair rates), which it owns from
    then on. Each round sets the rates [rates_of problem links], the
    link loads they induce, and each link's queue (bytes, integrating
    load minus capacity over the interval, floored at 0), then calls
    [update], which applies the scheme's link law to [links]. Each round
    emits the per-link values as [PriceUpdate] trace events (time =
    round × interval) to {!Nf_util.Trace.default}.
    @raise Invalid_argument naming [unit_name] on a multipath problem,
    at creation or {!field-rebind}, and on a rebind to another link
    count. *)
