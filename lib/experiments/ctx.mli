(** Execution context for experiments.

    A context tells an experiment {e how} to run without touching {e
    what} it computes: the scenario scale, the RNG seed base and the
    retry attempt. It replaces the old boolean
    [~quick] flag — quick mode is now just [scale = 0.2] — and is the
    unit of sharding for {!Runner}: every task gets its own context
    (seed offset by the task index, attempt set by the retry loop), so
    parallel tasks never share RNG state.

    Experiments must derive every random stream from {!rng_seed} and
    every scenario size from {!scaled}; given equal contexts they must
    produce equal {!Report.t}s. That purity is what makes [nf_run exp
    --all -j 4] byte-identical to [-j 1]. *)

type t = {
  scale : float;
      (** scenario scale factor: 1.0 = the paper's setup, 0.2 = the old
          [--quick] smoke scale *)
  seed : int;  (** RNG seed base; {!Runner} offsets it per task *)
  attempt : int;  (** 0 on the first try; bumped by {!Runner} retries *)
}

val make : ?scale:float -> ?seed:int -> ?attempt:int -> unit -> t
(** Defaults: [scale = 1.0], [seed = 0], [attempt = 0].
    @raise Invalid_argument if [scale <= 0]. *)

val default : t

val quick : t
(** [make ~scale:0.2 ()] — the old [~quick:true]. *)

val is_quick : t -> bool
(** [scale < 1] (any scaled-down run). *)

val scaled : ?floor:int -> t -> int -> int
(** [scaled ctx n] is [ceil (n * ctx.scale)], at least [floor] (default
    1): the full-scale knob [n] shrunk to this context's scale. *)

val rng_seed : t -> default:int -> int
(** The seed an experiment should feed to [Nf_util.Rng.create]:
    [ctx.seed + default], perturbed on retries so a transiently diverging
    instance re-rolls. With the default context this is exactly
    [default], keeping headline numbers comparable with the historical
    records in EXPERIMENTS.md. *)

val for_task : t -> index:int -> attempt:int -> t
(** The context {!Runner} hands to task [index]: [seed] offset by the
    task index (tasks never share an RNG stream) and [attempt] set. *)
