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

(** [unused-export], the whole-program rule. *)
type exports = {
  unused : Finding.t list;
      (** [val]s of a checked interface that no other unit references:
          findings *)
  test_only : Finding.t list;
      (** [val]s referenced only from test code: informational, never
          findings *)
}

(** [check_exports ~config cmts files] indexes every artifact in [cmts]
    and checks the interface of each file in [files] that
    [config.require_mli] covers. A value counts as used when another unit
    names it, through any chain of module aliases, or uses its module
    as a whole ([include], [(module M)], a functor argument, [module
    type of]). [test_code] says which source paths are test code
    (default: a path under a [test] directory). Empty unless [enabled
    "unused-export"]. *)
val check_exports :
  ?enabled:(string -> bool) ->
  ?test_code:(string -> bool) ->
  config:Config.t ->
  Cmts.t ->
  string list ->
  exports
