(** The typed rule stage, run over [Typedtree] structures loaded from
    cmt artifacts.

    Implements [float-compare] and [hot-alloc] on resolved paths and
    inferred types, plus the cross-module contract rules
    [domain-safety], [stale-generation] and [serve-blocking]. Shares the [@nf.allow] scope grammar with the
    syntactic stage ({!Rules.allow_of_attr}); a [domain-safety] waiver
    additionally requires a non-empty justification after [--]. *)

type ctx

val make_ctx : ?enabled:(string -> bool) -> config:Config.t -> string -> ctx

(** Run every typed rule over one implementation's typedtree,
    accumulating findings into the context. *)
val check_structure : ctx -> Typedtree.structure -> unit

(** Findings accumulated so far, in emission order. *)
val findings : ctx -> Finding.t list
