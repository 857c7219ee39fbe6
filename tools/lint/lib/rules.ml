(* The syntactic stage: rules implemented as one scoped traversal of
   the parsetree (compiler-libs [Ast_iterator]). No typing pass, so
   each check here is conservative; rules that need resolved paths or
   inferred types live in [Typed_rules] and run over cmt artifacts.

   Every finding is suppressible with [@nf.allow "rule"] at the
   offending expression, its enclosing let-binding, or file-wide with
   [@@@nf.allow "rule"]. The payload grammar is
   ["rule1 rule2 -- justification"]: rule names before the [--]
   separator, free-text justification after it. Most rules ignore the
   justification; [domain-safety] (typed stage) requires one. *)

open Parsetree

type stage = Syntactic | Typed

type meta = { id : string; summary : string; stage : stage }

let catalog =
  [
    {
      id = "determinism";
      stage = Syntactic;
      summary =
        "no Random.self_init; no wall clock (Unix.gettimeofday, Sys.time) \
         outside Profile/bench; no unordered Hashtbl.iter/fold/to_seq in \
         library modules unless the result is sorted";
    };
    {
      id = "exn-swallow";
      stage = Syntactic;
      summary =
        "no catch-all exception handler (with _ -> / with e ->) that \
         neither re-raises nor fails";
    };
    {
      id = "mli-missing";
      stage = Syntactic;
      summary = "every module under lib/ ships a .mli interface";
    };
    {
      id = "float-compare";
      stage = Typed;
      summary =
        "no polymorphic =/<>/compare/min/max at a type not provably \
         float-free in lib/num, lib/fluid, lib/serve and lib/engine; use \
         Float.compare, Int.min, ... (typed: resolved Stdlib paths, \
         inferred operand types)";
    };
    {
      id = "hot-alloc";
      stage = Typed;
      summary =
        "functions marked [@nf.hot] may not allocate closures, tuples, \
         boxed constructors, records, array literals, lazy blocks, stage \
         partial applications, or call allocating container constructors \
         (typed: partial application detected from omitted arguments); \
         nor use Float.max/Float.min, whose sign-bit tests are C calls; \
         nor store a float boxed: into a float field of a record that is \
         not all-float, or with := into a float ref not bound in the \
         body";
    };
    {
      id = "domain-safety";
      stage = Typed;
      summary =
        "closures passed to Shard.run, Domain.spawn or Runner tasks may \
         not write captured mutable state (refs, mutable fields, \
         Hashtbl/Buffer/array stores) unless chunk-local, mutex-guarded, \
         Atomic, or waived with [@nf.allow \"domain-safety -- why\"] \
         (justification required)";
    };
    {
      id = "stale-generation";
      stage = Typed;
      summary =
        "an Xwi_core.state or Incidence.t obtained before \
         Problem.add_group/remove_group/set_cap may not be used after it \
         without an intervening Problem.commit or Xwi_core.resize";
    };
    {
      id = "deprecated-copy";
      stage = Typed;
      summary =
        "no calls to the copying accessors Problem.link_loads / \
         Problem.group_rates outside Nf_num.Reference; use the _into \
         variants with a caller-owned buffer";
    };
    {
      id = "serve-blocking";
      stage = Typed;
      summary =
        "no blocking calls (Unix.sleep/sleepf/system/wait, Thread.delay) \
         inside the single-threaded serve dispatch loop";
    };
  ]

let rule_ids = List.map (fun m -> m.id) catalog

type ctx = {
  file : string;  (* normalized path, used in findings *)
  config : Config.t;
  enabled : string -> bool;
  mutable findings : Finding.t list;
  mutable allows : string list;  (* active [@nf.allow] scopes, flattened *)
  mutable sorted_depth : int;  (* > 0 while visiting args of a sort call *)
}

let make_ctx ?(enabled = fun _ -> true) ~config file =
  {
    file = Config.normalize file;
    config;
    enabled;
    findings = [];
    allows = [];
    sorted_depth = 0;
  }

let allowed ctx rule =
  List.mem rule ctx.allows || List.mem "*" ctx.allows

let emit ctx ~(loc : Location.t) rule msg =
  if ctx.enabled rule && not (allowed ctx rule) then begin
    let p = loc.loc_start in
    ctx.findings <-
      Finding.v ~file:ctx.file ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol)
        ~rule msg
      :: ctx.findings
  end

(* --------------------------------------------------------------- *)
(* Attribute handling: [@nf.allow "rule1 rule2 -- justification"] /
   bare [@nf.allow]. Shared with the typed stage. *)

type allow = {
  rules : string list;
  justification : string option;
  loc : Location.t;
}

(* Split a payload at the first "--" token: rules before, free-text
   justification after. "--" with no text after it counts as absent. *)
let parse_allow_payload s =
  let rec split_at_sep acc = function
    | [] -> (List.rev acc, None)
    | "--" :: rest ->
      let j = String.concat " " (List.filter (fun x -> x <> "") rest) in
      (List.rev acc, if j = "" then None else Some j)
    | tok :: rest -> split_at_sep (tok :: acc) rest
  in
  let tokens =
    String.split_on_char ' ' s |> List.filter (fun x -> x <> "")
  in
  let rules_part, justification = split_at_sep [] tokens in
  let rules =
    List.concat_map (String.split_on_char ',') rules_part
    |> List.filter (fun x -> x <> "")
  in
  (rules, justification)

let allow_of_attr (attr : attribute) =
  if attr.attr_name.txt <> "nf.allow" then None
  else
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
      let rules, justification = parse_allow_payload s in
      Some { rules; justification; loc = attr.attr_loc }
    | PStr [] ->
      (* bare [@nf.allow]: allow every rule *)
      Some { rules = [ "*" ]; justification = None; loc = attr.attr_loc }
    | _ -> None

let allow_rules_of_attr attr =
  match allow_of_attr attr with Some a -> a.rules | None -> []

let allow_rules_of_attrs attrs = List.concat_map allow_rules_of_attr attrs

(* --------------------------------------------------------------- *)
(* Identifier helpers. *)

let rec longident_to_string = function
  | Longident.Lident s -> s
  | Longident.Ldot (p, s) -> longident_to_string p ^ "." ^ s
  | Longident.Lapply (a, b) ->
    longident_to_string a ^ "(" ^ longident_to_string b ^ ")"

let ident_of_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (longident_to_string txt)
  | _ -> None

let wallclock_idents = [ "Unix.gettimeofday"; "Sys.time" ]

let hashtbl_unordered_idents =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let sort_idents =
  [
    "List.sort";
    "List.stable_sort";
    "List.fast_sort";
    "List.sort_uniq";
    "Array.sort";
    "Array.stable_sort";
  ]

(* --------------------------------------------------------------- *)
(* exn-swallow helpers. *)

let reraiser_idents =
  [
    "raise";
    "raise_notrace";
    "reraise";
    "failwith";
    "invalid_arg";
    "exit";
    "Stdlib.raise";
    "Stdlib.raise_notrace";
    "Stdlib.failwith";
    "Stdlib.invalid_arg";
    "Stdlib.exit";
    "Printexc.raise_with_backtrace";
  ]

let expr_reraises e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match ident_of_expr e with
          | Some id when List.mem id reraiser_idents -> found := true
          | _ -> ());
          (match e.pexp_desc with
          | Pexp_assert _ -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

(* [Some None]: catch-all wildcard; [Some (Some v)]: catch-all binding
   the exception to [v]; [None]: not a catch-all. *)
let rec catch_all_binder p =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var v -> Some (Some v.Asttypes.txt)
  | Ppat_alias (p, v) -> (
    match catch_all_binder p with
    | Some _ -> Some (Some v.Asttypes.txt)
    | None -> None)
  | Ppat_or (a, b) -> (
    match catch_all_binder a with
    | Some _ as r -> r
    | None -> catch_all_binder b)
  | Ppat_constraint (p, _) -> catch_all_binder p
  | _ -> None

let expr_mentions_var name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } when n = name ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

let check_handler_cases ctx cases ~exception_only =
  List.iter
    (fun c ->
      let binder =
        if exception_only then
          match c.pc_lhs.ppat_desc with
          | Ppat_exception p -> catch_all_binder p
          | _ -> None
        else catch_all_binder c.pc_lhs
      in
      match binder with
      | None -> ()
      | Some name ->
        (* A handler that re-raises, or that binds the exception and
           actually consumes it (logs it, wraps it in [Error _], ...),
           is not swallowing. *)
        let consumes =
          match name with
          | Some v -> expr_mentions_var v c.pc_rhs
          | None -> false
        in
        if not (consumes || expr_reraises c.pc_rhs) then
          emit ctx ~loc:c.pc_lhs.ppat_loc "exn-swallow"
            "catch-all exception handler swallows the exception; match \
             specific exceptions, consume the exception value, or re-raise")
    cases

(* --------------------------------------------------------------- *)
(* The traversal. *)

let make_iterator ctx =
  let super = Ast_iterator.default_iterator in
  let with_allows attrs k =
    match allow_rules_of_attrs attrs with
    | [] -> k ()
    | added ->
      let saved = ctx.allows in
      ctx.allows <- added @ saved;
      Fun.protect ~finally:(fun () -> ctx.allows <- saved) k
  in
  let expr self e =
    with_allows e.pexp_attributes @@ fun () ->
    match e.pexp_desc with
    | Pexp_ident _ -> (
      (* A bare mention (not the head of an application we special-case
         below): a nondeterminism source used point-free. *)
      match ident_of_expr e with
      | Some "Random.self_init" ->
        emit ctx ~loc:e.pexp_loc "determinism"
          "Random.self_init makes runs irreproducible; thread an Nf_util.Rng \
           seeded from the experiment Ctx instead"
      | Some id
        when List.mem id wallclock_idents
             && not (ctx.config.Config.wallclock_exempt ctx.file) ->
        emit ctx ~loc:e.pexp_loc "determinism"
          (Printf.sprintf
             "%s reads the wall clock; outside Profile/bench use simulated \
              time (Sim.now) or suppress with [@nf.allow \"determinism\"] \
              if wall time is genuinely wanted"
             id)
      | Some id
        when List.mem id hashtbl_unordered_idents
             && ctx.config.Config.hashtbl_ordered ctx.file
             && ctx.sorted_depth = 0 ->
        emit ctx ~loc:e.pexp_loc "determinism"
          (Printf.sprintf
             "%s traverses in unspecified hash order; sort the result \
              before it can reach Record/Report/Metrics output"
             id)
      | _ -> ())
    | Pexp_apply (f, args) -> (
      let visit_args () =
        List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args
      in
      match ident_of_expr f with
      | Some id when List.mem id sort_idents ->
        (* Unordered Hashtbl traversal feeding a sort is the sanctioned
           idiom: the sort re-establishes a canonical order. *)
        ctx.sorted_depth <- ctx.sorted_depth + 1;
        Fun.protect
          ~finally:(fun () -> ctx.sorted_depth <- ctx.sorted_depth - 1)
          visit_args
      | _ -> super.expr self e)
    | Pexp_try (_, cases) ->
      check_handler_cases ctx cases ~exception_only:false;
      super.expr self e
    | Pexp_match (_, cases) ->
      check_handler_cases ctx cases ~exception_only:true;
      super.expr self e
    | _ -> super.expr self e
  in
  let value_binding self vb =
    with_allows vb.pvb_attributes @@ fun () -> super.value_binding self vb
  in
  let structure self items =
    (* A floating [@@@nf.allow "..."] scopes over the rest of its
       structure (top level or nested module). *)
    let saved = ctx.allows in
    Fun.protect ~finally:(fun () -> ctx.allows <- saved) @@ fun () ->
    List.iter
      (fun item ->
        (match item.pstr_desc with
        | Pstr_attribute attr -> (
          match allow_rules_of_attr attr with
          | [] -> ()
          | added -> ctx.allows <- added @ ctx.allows)
        | _ -> ());
        self.Ast_iterator.structure_item self item)
      items
  in
  { super with expr; value_binding; structure }

let file_level_allows (str : structure) =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute attr -> allow_rules_of_attr attr
      | _ -> [])
    str

let check_structure ctx (str : structure) =
  let it = make_iterator ctx in
  it.Ast_iterator.structure it str

let findings ctx = List.rev ctx.findings

let add_finding ctx f = ctx.findings <- f :: ctx.findings

(* mli-missing is a file-level rule, checked by the driver; it honours
   file-wide [@@@nf.allow] collected from the parsed structure. *)
let check_mli ctx ~mli_exists (str : structure) =
  if
    ctx.config.Config.require_mli ctx.file
    && (not mli_exists)
    && ctx.enabled "mli-missing"
  then begin
    let allows = file_level_allows str in
    if not (List.mem "mli-missing" allows || List.mem "*" allows) then
      ctx.findings <-
        Finding.v ~file:ctx.file ~line:1 ~col:0 ~rule:"mli-missing"
          "library module has no .mli interface; add one (or \
           [@@@nf.allow \"mli-missing\"] with a justification)"
        :: ctx.findings
  end
