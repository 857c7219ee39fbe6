(** Typed run-record pipeline: every measurement a simulation run emits —
    queue depths, link prices, flow rates, completions, drop counters —
    flows through one of these instead of ad-hoc per-network hashtables.

    A record is a set of {e channels}; each channel holds one time series
    per {e subject} (a link id or a flow id). The network layer writes
    into the record as the simulation runs; experiments, the CLI
    ([nf_run exp NAME --record out.json]) read it
    back uniformly, and it exports as JSON. *)

type channel =
  | Queue  (** per-link queue occupancy, bytes *)
  | Price  (** per-link feedback value (price / fair rate) *)
  | Rate  (** per-flow receiver-measured rate, bps *)
  | Drops  (** per-link cumulative drop counter *)
  | Fct  (** flow completions; one sample (completion time, fct) per flow *)

type t

val create : unit -> t

val find : t -> channel -> subject:int -> Nf_util.Timeseries.t option
(** [None] if nothing was ever recorded for that (channel, subject). *)

val add : t -> channel -> subject:int -> time:float -> float -> unit

(** {2 Flow completions}

    Completions are both a measurement (the FCT channel) and queryable
    state; the record keeps them in completion order. *)

val complete : t -> flow:int -> at:float -> fct:float -> unit

val completions : t -> (int * float) list
(** All (flow id, fct) pairs so far, completion order. *)

val fct : t -> int -> float option

(** {2 Export} *)

val json : t -> Nf_util.Json.t
(** [{"channels":{"queue":[{"subject":3,"samples":[[t,v],...]},...],...}}]
    — every channel appears, empty ones as [[]]. *)

val write_json : t -> path:string -> unit
