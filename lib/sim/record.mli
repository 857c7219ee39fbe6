(** Typed run-record pipeline: every measurement a simulation run emits —
    queue depths, link prices, flow rates, completions, drop counters —
    flows through one of these instead of ad-hoc per-network hashtables.

    A record is a set of {e channels}; each channel holds one time series
    per {e subject} (a link id or a flow id). The network layer writes
    into the record as the simulation runs; experiments, the CLI
    ([nf_run exp NAME --record out.json]) read it
    back uniformly, and it can be exported as JSON or CSV. *)

type channel =
  | Queue  (** per-link queue occupancy, bytes *)
  | Price  (** per-link feedback value (price / fair rate) *)
  | Rate  (** per-flow receiver-measured rate, bps *)
  | Drops  (** per-link cumulative drop counter *)
  | Fct  (** flow completions; one sample (completion time, fct) per flow *)
  | Metric
      (** periodic snapshots of an {!Nf_util.Metrics} registry; the
          subject is the metric's registration id
          ({!Nf_util.Metrics.fold_values}) *)

val channel_name : channel -> string
(** "queue", "price", "rate", "drops", "fct", "metric". *)

val all_channels : channel list

type t

val create : unit -> t

val series : t -> channel -> subject:int -> Nf_util.Timeseries.t
(** The series of [subject] on [channel], created empty on first use. *)

val find : t -> channel -> subject:int -> Nf_util.Timeseries.t option
(** [None] if nothing was ever recorded for that (channel, subject). *)

val add : t -> channel -> subject:int -> time:float -> float -> unit

val subjects : t -> channel -> int list
(** Subjects with a series on the channel, ascending. *)

(** {2 Flow completions}

    Completions are both a measurement (the FCT channel) and queryable
    state; the record keeps them in completion order. *)

val complete : t -> flow:int -> at:float -> fct:float -> unit

val completions : t -> (int * float) list
(** All (flow id, fct) pairs so far, completion order. *)

val fct : t -> int -> float option

val snapshot_metrics : t -> registry:Nf_util.Metrics.t -> time:float -> unit
(** Append every metric's current primary value (counter count, gauge
    value, histogram observation count) to the {!Metric} channel, keyed by
    the metric's registration id. Call it periodically (e.g. from a
    {!Nf_engine.Sim.periodic} event) to get metric trajectories over
    simulated time. *)

(** {2 Export} *)

val json : t -> Nf_util.Json.t
(** [{"channels":{"queue":[{"subject":3,"samples":[[t,v],...]},...],...}}]
    — every channel appears, empty ones as [[]]. *)

val to_json : t -> string
(** [Nf_util.Json.to_string (json t)]. *)

val to_csv : t -> string
(** One row per sample: [channel,subject,time,value]. *)

val write_json : t -> path:string -> unit

val write_csv : t -> path:string -> unit
