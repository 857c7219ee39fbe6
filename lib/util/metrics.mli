(** Metrics registry: named counters, gauges and histograms.

    Modules register their metrics once (usually against {!global} at
    module-init time) and update them unconditionally — an update is an
    int/float store, cheap enough for packet-rate hot paths. A registry
    snapshots to a Prometheus-style text page ({!to_prometheus}), to JSON
    ({!json}), or — via {!fold_values} — into an
    [Nf_sim.Record.t] time series for trajectory plots.

    Metric names follow Prometheus conventions:
    [nf_<layer>_<what>{_total,_seconds,...}], e.g.
    [nf_sim_packets_dropped_total], [nf_engine_heap_depth_max],
    [nf_xwi_iterations]. *)

type t
(** A registry. *)

val create : unit -> t

val global : t
(** The process-wide registry every built-in metric registers against. *)

type counter

type gauge

type histogram

val counter : t -> ?help:string -> string -> counter
(** Register (or retrieve, if already registered) a monotone counter.
    @raise Invalid_argument if the name is taken by a non-counter. *)

val gauge : t -> ?help:string -> string -> gauge

val histogram : t -> ?help:string -> buckets:float list -> string -> histogram
(** [buckets] are upper bounds, strictly increasing; a [+Inf] bucket is
    implicit. Re-registration ignores the new [buckets]. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on negative increments. *)

val counter_value : counter -> int

val set_gauge : gauge -> float -> unit

val max_gauge : gauge -> float -> unit
(** Set the gauge to the max of its current value and the argument. *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val reset : t -> unit
(** Zero every metric (registrations are kept). *)

val fold_values : t -> init:'a -> f:('a -> id:int -> name:string -> float -> 'a) -> 'a
(** Fold over each metric's primary value: a counter's count, a gauge's
    value, a histogram's observation count. [id] is the registration
    index, stable for the life of the registry. *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# HELP] / [# TYPE] lines, then samples
    (histograms as [_bucket{le=...}] / [_sum] / [_count]). *)

val json : t -> Json.t
(** [{"metrics":[{"name":...,"type":...,"value":...},...]}]; histograms
    carry [buckets], [inf], [sum] and [count] instead of a value. *)

val to_json : t -> string
(** [Json.to_string (json t)]. *)
