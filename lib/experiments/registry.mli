(** Name-keyed registry of runnable experiments.

    The built-in experiments (the paper's tables/figures plus the
    validation and ablation extras) register themselves when this module
    is linked; the CLI ([nf_run list] / [nf_run exp]) enumerates from
    here, so adding an experiment is one {!register} call.

    An experiment is a {e pure data producer}: [run ctx] maps an
    execution context (scale factor, seed base, retry attempt — see
    {!Ctx}) to a structured {!Report.t}. It must not print, and equal
    contexts must yield equal reports — that contract is what lets
    {!Runner} shard experiments across domains with deterministic
    merged output.
    Formatting lives in {!Report}'s renderers; scheduling in {!Runner}. *)

type entry = {
  name : string;
  description : string;
  run : Ctx.t -> Report.t;
      (** [ctx.scale] subsumes the deprecated [~quick] boolean
          (quick = 0.2, full = 1.0); per-experiment scenario knobs are
          derived with {!Ctx.scaled} and RNG seeds with {!Ctx.rng_seed}. *)
}

val find : string -> entry option

val all : unit -> entry list
(** Registration order (built-ins: paper order). *)

val names : unit -> string list
