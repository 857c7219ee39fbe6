(** Execution context for experiments.

    A context tells an experiment {e how} to run: the scenario scale and
    the RNG seed base. {!Runner} hands every task the same context, and
    each experiment offsets the seed with its own [~default], so a
    task's report does not depend on its place in the sweep: [nf_run
    exp X] reports exactly X's entry in [nf_run exp --all].

    Experiments must derive every random stream from {!rng_seed} and
    every scenario size from {!scaled}; given equal contexts they must
    produce equal {!Report.t}s. That purity is what makes [nf_run exp
    --all -j 4] byte-identical to [-j 1]. *)

type t = {
  scale : float;  (** scenario scale factor: 1.0 = the paper's setup *)
  seed : int;  (** RNG seed base, shared by every task of a sweep *)
}

val make : scale:float -> seed:int -> t
(** @raise Invalid_argument if [scale <= 0]. *)

val scaled : floor:int -> t -> int -> int
(** [scaled ~floor ctx n] is [ceil (n * ctx.scale)], at least [floor]:
    the full-scale knob [n] shrunk to this context's scale. *)

val rng_seed : t -> default:int -> int
(** The seed an experiment should feed to [Nf_util.Rng.create]:
    [ctx.seed + default]. With seed base 0 this is exactly [default],
    keeping headline numbers comparable with the historical records in
    EXPERIMENTS.md. *)

