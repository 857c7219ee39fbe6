(** The runnable experiments: the paper's tables and figures plus the
    validation and ablation extras, in paper order. The CLI ([nf_run
    list] / [nf_run exp]) enumerates from here, so adding an experiment
    is one more {!entry} in {!all}.

    An experiment is a {e pure data producer}: [run ctx] maps an
    execution context (scale factor and seed base — see {!Ctx}) to a
    structured {!Report.t}. It must not print, and equal contexts must
    yield equal reports — that contract is what lets
    {!Runner}'s worker pool run experiments on several domains with
    deterministic merged output.
    Formatting lives in {!Report}'s renderers; scheduling in {!Runner}. *)

type entry = {
  name : string;
  description : string;
  run : Ctx.t -> Report.t;
}

val all : entry list
(** Paper order; names are unique. *)

val find : string -> entry option
