(* The typed stage: rules that need resolved identifier paths and
   inferred types, walked over [Typedtree] structures loaded from cmt
   artifacts ([Cmts]).

   Three rule families live here:
   - [float-compare], [hot-alloc] and [hot-barrier], re-implemented on typed
     information. The parsetree versions (PR 5) had to guess: a
     polymorphic [=] was flagged unless an operand was *syntactically*
     non-float, and allocation was judged from expression shapes. Here
     the checker has already resolved every identifier ([Stdlib.compare]
     vs a local [compare]) and typed every operand, so [x = y] on two
     ints is clean, [compare a b] on a float-carrying type is a finding,
     and partial applications are exact ([Texp_apply] with an omitted
     argument) rather than a nested-apply heuristic. [hot-barrier] reads
     the stored value's type to tell a pointer store (which runs
     [caml_modify]) from an immediate one.
   - [domain-safety]: closures handed to [Domain.spawn] or [Runner]
     tasks may not write captured mutable state unless the
     write is chunk-local (indexed by a binding of the task's own
     scope), mutex-guarded, or waived with a justification.
   - [stale-generation] / [serve-blocking]:
     cross-module API contracts of the delta [Problem] layer and the
     serve loop.

   Suppression follows the syntactic stage: [@nf.allow "rule"] scopes,
   with the extended payload grammar ["rules -- justification"]. A
   [domain-safety] or [hot-barrier] waiver must carry a justification. *)

open Typedtree

type ctx = {
  file : string;
  config : Config.t;
  enabled : string -> bool;
  mutable findings : Finding.t list;
  mutable allows : string list;  (* active allow scopes, flattened *)
}

let make_ctx ?(enabled = fun _ -> true) ~config file =
  { file = Config.normalize file; config; enabled; findings = []; allows = [] }

let findings ctx = List.rev ctx.findings

let allowed ctx rule = List.mem rule ctx.allows || List.mem "*" ctx.allows

let emit ?(force = false) ctx ~(loc : Location.t) rule msg =
  if ctx.enabled rule && (force || not (allowed ctx rule)) then begin
    let p = loc.loc_start in
    ctx.findings <-
      Finding.v ~file:ctx.file ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol)
        ~rule msg
      :: ctx.findings
  end

(* --------------------------------------------------------------- *)
(* Path and type helpers. *)

let path_name (p : Path.t) = Path.name p

(* [name] equals [cand] or ends with ".cand" — matches both the
   wrapped-library spelling ("Stdlib.Domain.spawn") and a local one
   ("Domain.spawn"), but never a mere substring ("link_loads_into"). *)
let path_is name cand =
  name = cand
  || String.length name > String.length cand + 1
     && String.sub name
          (String.length name - String.length cand - 1)
          (String.length cand + 1)
        = "." ^ cand

let path_in name cands = List.exists (path_is name) cands

let head_ident e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (path_name p)
  | _ -> None

(* Provably float-free: no value of this type contains a float anywhere
   a polymorphic comparison would reach. Without an environment we
   cannot expand abbreviations, so an unknown constructor is counted as
   possibly-float (the conservative direction — same as the syntactic
   rule, but the checker has already collapsed the common cases to
   predefined constructors). *)
let rec float_free (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> (
    match path_name p with
    | "int" | "char" | "bool" | "unit" | "string" | "bytes" | "int32"
    | "int64" | "nativeint" | "exn" | "Stdlib.Int.t" | "Int.t"
    | "Stdlib.Bool.t" | "Stdlib.Char.t" | "Stdlib.String.t" ->
      true
    | "list" | "option" | "array" | "ref" | "Stdlib.ref" | "result"
    | "Stdlib.result" | "Stdlib.Either.t" | "Seq.t" | "Stdlib.Seq.t" ->
      List.for_all float_free args
    | _ -> false)
  | Types.Ttuple tys -> List.for_all float_free tys
  | _ -> false

let rec arrow_operand_types (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, b, _) -> a :: arrow_operand_types b
  | _ -> []

let tracked_type_kind (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    let n = path_name p in
    if path_is n "Xwi_core.state" then Some `State
    else if path_is n "Incidence.t" then Some `Incidence
    else None
  | _ -> None

(* --------------------------------------------------------------- *)
(* Allow-scope handling (shared grammar with the syntactic stage). *)

(* Rules whose waivers must say why, with the hint their finding gives. *)
let justified_rules =
  [
    ("domain-safety", "why this shared write is safe");
    ("hot-barrier", "why this pointer store stays");
    ("unused-export", "why this export stays");
  ]

let with_allows ?(check_justification = false) ctx (attrs : attributes) k =
  let entries = List.filter_map Rules.allow_of_attr attrs in
  if check_justification then
    List.iter
      (fun (a : Rules.allow) ->
        let unjustified =
          match a.justification with
          | None -> true
          | Some j -> String.trim j = ""
        in
        List.iter
          (fun (rule, why) ->
            if unjustified && List.mem rule a.rules then
              emit ~force:true ctx ~loc:a.loc rule
                (Printf.sprintf
                   "%s waiver carries no justification; write [@nf.allow \
                    \"%s -- %s\"]"
                   rule rule why))
          justified_rules)
      entries;
  match List.concat_map (fun (a : Rules.allow) -> a.rules) entries with
  | [] -> k ()
  | added ->
    let saved = ctx.allows in
    ctx.allows <- added @ saved;
    Fun.protect ~finally:(fun () -> ctx.allows <- saved) k

(* --------------------------------------------------------------- *)
(* Pattern variable collection (idents bound by a pattern, with their
   types). *)

let pattern_vars (type k) (p : k general_pattern) =
  let acc = ref [] in
  let pat : type l. Tast_iterator.iterator -> l general_pattern -> unit =
   fun self q ->
    (match q.pat_desc with
    | Tpat_var (id, _) -> acc := (id, q.pat_type) :: !acc
    | Tpat_alias (_, id, _) -> acc := (id, q.pat_type) :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.pat self q
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.pat it p;
  List.rev !acc

(* --------------------------------------------------------------- *)
(* Rule vocabulary. *)

let poly_compare_paths =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.min"; "Stdlib.max" ]

let unqualify id =
  match String.rindex_opt id '.' with
  | None -> id
  | Some i -> String.sub id (i + 1) (String.length id - i - 1)

(* Stdlib calls that always allocate a fresh container (or box the
   result): forbidden inside [@nf.hot] bodies. Matched on resolved
   paths, so [let open Array in make ...] is caught too. In-place
   operations (blit/fill) and [ref] cells stay permitted — see the
   syntactic rule's rationale in PR 5. *)
let allocating_calls =
  [
    "Array.make"; "Array.create_float"; "Array.init"; "Array.make_matrix";
    "Array.copy"; "Array.append"; "Array.concat"; "Array.sub";
    "Array.of_list"; "Array.to_list"; "Array.map"; "Array.mapi";
    "Array.to_seq"; "List.init"; "List.map"; "List.mapi"; "List.rev";
    "List.rev_map"; "List.append"; "List.concat"; "List.concat_map";
    "List.filter"; "List.filter_map"; "List.of_seq"; "List.to_seq";
    "Bigarray.Array1.create"; "Bigarray.Array1.sub"; "String.make";
    "String.init"; "String.sub"; "String.concat"; "String.cat";
    "Bytes.create"; "Bytes.make"; "Bytes.sub"; "Buffer.create";
    "Hashtbl.create"; "Queue.create"; "Printf.sprintf"; "Format.asprintf";
  ]

(* The stdlib float min/max test sign bits through a C call
   ([caml_signbit_float]) on every comparison, inlined or not. Hot
   kernels use a comparison-only pair defined in their own unit. *)
let signbit_minmax = [ "Float.max"; "Float.min" ]

let signbit_minmax_msg id =
  let op = unqualify id in
  Printf.sprintf
    "Float.%s makes a sign-bit C call per comparison inside a [@nf.hot] \
     function; use the unit's comparison-only f%s"
    op op

(* Generic-hashtable operations: each hashes its key through a C call
   ([caml_hash]) and compares keys polymorphically, and [find_opt] also
   builds a [Some]. Hot code indexes a flat array by id instead. *)
let hashtbl_ops =
  [
    "Hashtbl.find"; "Hashtbl.find_opt"; "Hashtbl.mem"; "Hashtbl.replace";
    "Hashtbl.add"; "Hashtbl.remove";
  ]

let hashtbl_op_msg id =
  Printf.sprintf
    "Hashtbl.%s hashes its key through a C call and compares it \
     polymorphically%s inside a [@nf.hot] function; index a flat array \
     by id instead"
    (unqualify id)
    (if unqualify id = "find_opt" then ", and allocates its Some," else "")

let mutator_targets_ref = [ ":="; "incr"; "decr" ]

let mutator_containers =
  [
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace"; "Buffer.add_string";
    "Buffer.add_char"; "Buffer.add_bytes"; "Buffer.add_buffer";
    "Buffer.add_substring"; "Buffer.clear"; "Buffer.reset"; "Queue.add";
    "Queue.push"; "Queue.pop"; "Queue.take"; "Queue.clear"; "Queue.transfer";
    "Stack.push"; "Stack.pop"; "Stack.clear"; "Array.fill"; "Array.blit";
    "Bytes.fill"; "Bytes.blit";
  ]

let indexed_writes =
  [
    "Array.set"; "Array.unsafe_set"; "Bytes.set"; "Bytes.unsafe_set";
    "Bigarray.Array1.set"; "Bigarray.Array1.unsafe_set";
    "Bigarray.Array2.set"; "Bigarray.Array2.unsafe_set";
    "Bigarray.Genarray.set";
  ]

let blocking_calls =
  [
    "Unix.sleep"; "Unix.sleepf"; "Thread.delay"; "Unix.system"; "Unix.wait";
    "Unix.waitpid"; "Unix.create_process"; "Sys.command";
  ]

let problem_mutators =
  [
    "Problem.add_group"; "Problem.remove_group"; "Problem.set_cap";
  ]

let generation_clearers = [ "Problem.commit"; "Xwi_core.resize" ]

(* Bare names too: a module-internal call resolves to a plain ident
   with no [Problem.] prefix. *)
(* --------------------------------------------------------------- *)
(* domain-safety: closure analysis. *)

type domain_scope = {
  bound : (Ident.t, unit) Hashtbl.t;  (* idents bound inside the closure *)
  mutable protect_depth : int;  (* > 0 inside Mutex.protect's thunk *)
  mutable locked : bool;  (* a Mutex.lock ran earlier in this body *)
  what : string;  (* "Domain.spawn"/"Runner task" *)
}

let is_local_ident scope e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem scope.bound id
  | _ -> false

let mentions_bound scope e =
  let found = ref false in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem scope.bound id ->
      found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let first_positional args =
  List.find_map
    (fun (lbl, a) ->
      match (lbl, a) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let nth_positional n args =
  List.filter_map
    (fun (lbl, a) ->
      match (lbl, a) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args
  |> fun l -> List.nth_opt l n

let check_domain_closure ctx ~what closure =
  let scope =
    { bound = Hashtbl.create 32; protect_depth = 0; locked = false; what }
  in
  let bind_pattern p =
    List.iter (fun (id, _) -> Hashtbl.replace scope.bound id ()) (pattern_vars p)
  in
  let guarded () = scope.protect_depth > 0 || scope.locked in
  let flag loc msg =
    emit ctx ~loc "domain-safety"
      (Printf.sprintf
         "%s inside a %s closure; make the write chunk-local (indexed by \
          the task's own range), guard it with a mutex, use Atomic, or \
          waive with [@nf.allow \"domain-safety -- justification\"]"
         msg scope.what)
  in
  let rec expr self e =
    with_allows ctx e.exp_attributes @@ fun () ->
    match e.exp_desc with
    | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          bind_pattern c.c_lhs;
          Option.iter (expr self) c.c_guard;
          expr self c.c_rhs)
        cases
    | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          expr self vb.vb_expr;
          bind_pattern vb.vb_pat)
        vbs;
      expr self body
    | Texp_for (id, _, lo, hi, _, body) ->
      expr self lo;
      expr self hi;
      Hashtbl.replace scope.bound id ();
      expr self body
    | Texp_match (scrut, cases, _) ->
      expr self scrut;
      List.iter
        (fun c ->
          bind_pattern c.c_lhs;
          Option.iter (expr self) c.c_guard;
          expr self c.c_rhs)
        cases
    | Texp_try (body, cases) ->
      expr self body;
      List.iter
        (fun c ->
          bind_pattern c.c_lhs;
          Option.iter (expr self) c.c_guard;
          expr self c.c_rhs)
        cases
    | Texp_setfield (target, _, label, value) ->
      if (not (guarded ())) && not (is_local_ident scope target) then
        flag e.exp_loc
          (Printf.sprintf "mutable field %s of a captured value written"
             label.Types.lbl_name);
      expr self target;
      expr self value
    | Texp_apply (f, args) -> (
      let visit_args () =
        List.iter (fun (_, a) -> Option.iter (expr self) a) args
      in
      match head_ident f with
      | Some id when path_is id "Mutex.protect" ->
        (* The thunk argument runs under the lock. *)
        List.iter
          (fun (_, a) ->
            Option.iter
              (fun a ->
                match a.exp_desc with
                | Texp_function _ ->
                  scope.protect_depth <- scope.protect_depth + 1;
                  Fun.protect
                    ~finally:(fun () ->
                      scope.protect_depth <- scope.protect_depth - 1)
                    (fun () -> expr self a)
                | _ -> expr self a)
              a)
          args
      | Some id when path_is id "Mutex.lock" ->
        scope.locked <- true;
        visit_args ()
      | Some id when path_is id "Mutex.unlock" ->
        scope.locked <- false;
        visit_args ()
      | Some id when path_in id mutator_targets_ref ->
        (match first_positional args with
        | Some target
          when (not (guarded ())) && not (is_local_ident scope target) ->
          flag e.exp_loc
            (Printf.sprintf "captured ref mutated with %s" (unqualify id))
        | _ -> ());
        visit_args ()
      | Some id when path_in id mutator_containers ->
        (match first_positional args with
        | Some target
          when (not (guarded ())) && not (is_local_ident scope target) ->
          flag e.exp_loc
            (Printf.sprintf "captured container mutated with %s"
               (unqualify id))
        | _ -> ());
        visit_args ()
      | Some id when path_in id indexed_writes ->
        (match (first_positional args, nth_positional 1 args) with
        | Some target, Some index
          when (not (guarded ()))
               && (not (is_local_ident scope target))
               && not (mentions_bound scope index) ->
          (* A captured output buffer written at an index derived from
             the task's own bindings (its own chunk of the range) is the
             sanctioned data-parallel shape; a constant or captured index
             races with the other tasks. *)
          flag e.exp_loc
            (Printf.sprintf
               "captured buffer written with %s at an index not derived \
                from the task's own range"
               (unqualify id))
        | _ -> ());
        visit_args ()
      | _ ->
        expr self f;
        visit_args ())
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  (* The closure's own parameters are scope-local by construction. *)
  it.expr it closure

(* --------------------------------------------------------------- *)
(* Pass A: float-compare, hot-alloc, serve-blocking,
   domain-safety trigger detection. One traversal. *)

let is_float_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> (
    Path.same p Predef.path_float
    ||
    match path_name p with
    | "Float.t" | "Stdlib.Float.t" -> true
    | _ -> false)
  | _ -> false

let is_float_ref_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, [ arg ], _) ->
    (match path_name p with "ref" | "Stdlib.ref" -> true | _ -> false)
    && is_float_type arg
  | _ -> false

(* Boxed float stores. A float field of a record that is not all-float
   holds a pointer, so every store allocates a box and runs the write
   barrier; an all-float record ([Record_float]) stores flat. [:=] on a
   float ref boxes the same way, except for a ref bound by a [let] in the
   hot body itself: the compiler turns such a ref into a register
   variable ([hot_refs] holds those). *)
let boxed_float_store ~hot_refs e =
  match e.exp_desc with
  | Texp_setfield (_, _, label, _)
    when is_float_type label.Types.lbl_arg
         && label.Types.lbl_repres <> Types.Record_float ->
    Some
      (Printf.sprintf
         "store to float field %s of a record that is not all-float boxes \
          the float inside a [@nf.hot] function; move the field into an \
          all-float record"
         label.Types.lbl_name)
  | Texp_apply (f, args) -> (
    match (head_ident f, first_positional args) with
    | Some id, Some target
      when path_is id ":=" && is_float_ref_type target.exp_type -> (
      match target.exp_desc with
      | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem hot_refs id -> None
      | _ ->
        Some
          ":= on a float ref not bound in this [@nf.hot] body boxes the \
           float; keep it in an all-float record")
    | _ -> None)
  | _ -> None

(* Remember [let r = ref ...] bindings made inside a hot body. *)
let note_hot_refs ~hot_refs e =
  match e.exp_desc with
  | Texp_let (_, vbs, _) ->
    List.iter
      (fun vb ->
        match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
        | Tpat_var (id, _), Texp_apply (f, _) -> (
          match head_ident f with
          | Some fid when path_is fid "ref" -> Hashtbl.replace hot_refs id ()
          | _ -> ())
        | _ -> ())
      vbs
  | _ -> ()

let check_hot_node ctx ~hot_refs e =
  let bad msg = emit ctx ~loc:e.exp_loc "hot-alloc" msg in
  note_hot_refs ~hot_refs e;
  Option.iter bad (boxed_float_store ~hot_refs e);
  match e.exp_desc with
  | Texp_ident (p, _, _) when path_in (path_name p) signbit_minmax ->
    (* A bare mention, e.g. [Array.fold_left Float.max]; an applied one
       is reported at its application below. *)
    bad (signbit_minmax_msg (path_name p))
  | Texp_function _ -> bad "closure allocated inside a [@nf.hot] function"
  | Texp_tuple _ -> bad "tuple allocated inside a [@nf.hot] function"
  | Texp_construct (_, cstr, args) when args <> [] -> (
    match cstr.Types.cstr_tag with
    | Types.Cstr_unboxed -> ()
    | _ ->
      bad
        (Printf.sprintf
           "constructor %s allocates a block inside a [@nf.hot] function"
           cstr.Types.cstr_name))
  | Texp_record _ -> bad "record allocated inside a [@nf.hot] function"
  | Texp_array _ -> bad "array literal allocated inside a [@nf.hot] function"
  | Texp_lazy _ -> bad "lazy block allocated inside a [@nf.hot] function"
  | Texp_apply (f, args) -> (
    (* An omitted argument slot is the typechecker's own marker for a
       partial application that must stage a closure. An arrow-typed
       result alone is NOT used: [Fheap.top q] returning an existing
       closure is type-indistinguishable from partial application. *)
    if List.exists (fun (_, a) -> a = None) args then
      bad
        "partial application allocates a closure inside a [@nf.hot] \
         function"
    else
      match head_ident f with
      | Some id when path_in id signbit_minmax ->
        bad (signbit_minmax_msg id)
      | Some id when path_in id hashtbl_ops -> bad (hashtbl_op_msg id)
      | Some id when path_in id allocating_calls ->
        bad
          (Printf.sprintf
             "%s allocates a fresh container inside a [@nf.hot] function; \
              write into a preallocated workspace buffer instead"
             (unqualify id))
      | Some _ | None -> ())
  | _ -> ()

(* hot-barrier. A store runs the write barrier ([caml_modify], which
   also darkens the overwritten value while the major GC marks) unless
   the compiler knows the stored value is immediate, or the target is a
   flat float array or an all-float record. That is decided on the
   stored value's type, so a constant constructor of a type with
   non-constant ones still pays it. The cmt environments are summaries,
   so types are judged by name: the predefined immediates, a constant
   constructor of an all-constant variant, and floats (a float stored
   boxed is [hot-alloc]'s finding, not this one). *)
let immediate_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> (
    match path_name p with
    | "int" | "char" | "bool" | "unit" | "Stdlib.Int.t" | "Int.t"
    | "Stdlib.Bool.t" | "Bool.t" | "Stdlib.Char.t" | "Char.t" ->
      true
    | _ -> false)
  | _ -> false

let barrier_free_value v =
  immediate_type v.exp_type || is_float_type v.exp_type
  ||
  match v.exp_desc with
  | Texp_construct (_, cstr, []) -> cstr.Types.cstr_nonconsts = 0
  | _ -> false

let array_element (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, [ elt ], _) when path_name p = "array" -> Some elt
  | _ -> None

let barrier_msg what =
  Printf.sprintf
    "%s inside a [@nf.hot] function stores a pointer, which runs the \
     write barrier (caml_modify, and caml_darken while the major GC \
     marks); store an int handle instead, or waive with [@nf.allow \
     \"hot-barrier -- why\"]"
    what

let check_barrier_node ctx ~hot_refs e =
  let bad what = emit ctx ~loc:e.exp_loc "hot-barrier" (barrier_msg what) in
  match e.exp_desc with
  | Texp_setfield (_, _, label, value)
    when label.Types.lbl_repres <> Types.Record_float
         && not (barrier_free_value value) ->
    bad (Printf.sprintf "store to field %s" label.Types.lbl_name)
  | Texp_apply (f, args) -> (
    match (head_ident f, first_positional args, nth_positional 2 args) with
    | Some id, Some target, Some value
      when path_in id [ "Array.set"; "Array.unsafe_set" ] ->
      let flat =
        match array_element target.exp_type with
        | Some elt -> immediate_type elt || is_float_type elt
        | None -> false
      in
      if not (flat || barrier_free_value value) then bad "array store"
    | Some id, Some target, _ when path_is id ":=" -> (
      match (target.exp_desc, nth_positional 1 args) with
      | Texp_ident (Path.Pident rid, _, _), _ when Hashtbl.mem hot_refs rid -> ()
      | _, Some value when not (barrier_free_value value) -> bad ":="
      | _ -> ())
    | _ -> ())
  | _ -> ()

let is_hot_attr (attr : Parsetree.attribute) = attr.attr_name.txt = "nf.hot"

let poly_compare_hint id =
  match unqualify id with
  | "=" -> "Float.equal/Int.equal"
  | "<>" -> "not (Float.equal ...)/not (Int.equal ...)"
  | "compare" -> "Float.compare/Int.compare"
  | op -> Printf.sprintf "Float.%s/Int.%s" op op

let check_main ctx (str : structure) =
  let float_strict = ctx.config.Config.float_strict ctx.file in
  let serve_loop = ctx.config.Config.serve_loop ctx.file in
  let hot_depth = ref 0 in
  let hot_refs = Hashtbl.create 16 in
  let rec expr self e =
    with_allows ~check_justification:true ctx e.exp_attributes @@ fun () ->
    if !hot_depth > 0 then begin
      check_hot_node ctx ~hot_refs e;
      check_barrier_node ctx ~hot_refs e
    end;
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
      (* A bare mention: a polymorphic comparator passed as a function
         value. The instantiated type at this use site tells us whether
         the checker monomorphised it away from float. *)
      let id = path_name p in
      if
        float_strict
        && List.mem id poly_compare_paths
        && not (List.exists float_free (arrow_operand_types e.exp_type))
      then
        emit ctx ~loc:e.exp_loc "float-compare"
          (Printf.sprintf
             "polymorphic %s passed as a function at a type not provably \
              float-free; use %s"
             (unqualify id) (poly_compare_hint id))
    | Texp_apply (f, args) -> (
      let visit_args () =
        List.iter (fun (_, a) -> Option.iter (expr self) a) args
      in
      let head = head_ident f in
      (match head with
      | Some id when float_strict && List.mem id poly_compare_paths ->
        let operands =
          List.filter_map
            (fun (lbl, a) ->
              match (lbl, a) with
              | Asttypes.Nolabel, Some a -> Some a.exp_type
              | _ -> None)
            args
        in
        if not (List.exists float_free operands) then
          emit ctx ~loc:e.exp_loc "float-compare"
            (Printf.sprintf
               "polymorphic %s on operands not provably float-free; use %s \
                (nan-safe, monomorphic)"
               (unqualify id) (poly_compare_hint id))
      | Some id when serve_loop && path_in id blocking_calls ->
        emit ctx ~loc:e.exp_loc "serve-blocking"
          (Printf.sprintf
             "%s blocks the single-threaded serve dispatch; every \
              connected client stalls until it returns — move the work \
              out of the select loop"
             (unqualify id))
      | Some id when path_is id "Domain.spawn" ->
        List.iter
          (fun (_, a) ->
            Option.iter
              (fun a ->
                match a.exp_desc with
                | Texp_function _ ->
                  check_domain_closure ctx ~what:"Domain.spawn" a
                | _ -> ())
              a)
          args
      | _ -> ());
      (* Skip [f] when it is a plain ident (it would double-report as a
         bare mention); always visit the arguments. *)
      match f.exp_desc with
      | Texp_ident _ -> visit_args ()
      | _ ->
        expr self f;
        visit_args ())
    | Texp_record { fields; _ } ->
      (match Types.get_desc e.exp_type with
      (* An experiment entry's [run] executes on a Runner worker domain;
         inside registry.ml the record type is the bare [entry]. *)
      | Types.Tconstr (p, _, _)
        when path_is (path_name p) "Registry.entry"
             || (path_name p = "entry"
                && Filename.basename ctx.file = "registry.ml") ->
        Array.iter
          (fun (_, def) ->
            match def with
            | Overridden (_, v) -> (
              match v.exp_desc with
              | Texp_function _ ->
                check_domain_closure ctx ~what:"Runner task" v
              | _ -> ())
            | Kept _ -> ())
          fields
      | _ -> ());
      Tast_iterator.default_iterator.expr self e
    | _ -> Tast_iterator.default_iterator.expr self e
  and value_binding self vb =
    with_allows ~check_justification:true ctx vb.vb_attributes @@ fun () ->
    if List.exists is_hot_attr vb.vb_attributes then begin
      (* The outer curried parameter chain is the function head, not an
         allocation; everything below it is the hot body. *)
      let enter_hot body =
        incr hot_depth;
        Fun.protect ~finally:(fun () -> decr hot_depth) (fun () ->
            expr self body)
      in
      let rec strip e =
        match e.exp_desc with
        | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
          strip c_rhs
        | Texp_function { cases; _ } ->
          List.iter
            (fun c ->
              Option.iter enter_hot c.c_guard;
              enter_hot c.c_rhs)
            cases
        | _ -> enter_hot e
      in
      strip vb.vb_expr
    end
    else Tast_iterator.default_iterator.value_binding self vb
  and structure self items =
    (* A floating [@@@nf.allow "..."] scopes over the rest of its
       structure (top level or nested module). *)
    let saved = ctx.allows in
    Fun.protect ~finally:(fun () -> ctx.allows <- saved) @@ fun () ->
    List.iter
      (fun item ->
        (match item.str_desc with
        | Tstr_attribute attr -> (
          match Rules.allow_of_attr attr with
          | Some a -> ctx.allows <- a.rules @ ctx.allows
          | None -> ())
        | _ -> ());
        self.Tast_iterator.structure_item self item)
      items
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr;
      value_binding;
      structure =
        (fun self s -> structure self s.str_items);
    }
  in
  it.structure it str

(* --------------------------------------------------------------- *)
(* Pass B: stale-generation. A syntactic-flow scan per top-level item:
   bindings of [Xwi_core.state] / [Incidence.t] are tracked by ident;
   a [Problem] topology mutation marks them stale; [Problem.commit] or
   [Xwi_core.resize] clears; a use of a stale ident (other than as an
   argument of [resize]) is a finding. The traversal order approximates
   evaluation order, which is what "syntactic flow" buys. *)

let check_stale ctx (str : structure) =
  let tracked : (Ident.t, [ `State | `Incidence ]) Hashtbl.t =
    Hashtbl.create 16
  in
  let stale : (Ident.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let suppress_use = ref false in
  let bind_pattern p =
    List.iter
      (fun (id, ty) ->
        match tracked_type_kind ty with
        | Some kind ->
          Hashtbl.replace tracked id kind;
          Hashtbl.remove stale id
        | None -> ())
      (pattern_vars p)
  in
  let rec expr self e =
    with_allows ctx e.exp_attributes @@ fun () ->
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _)
      when Hashtbl.mem stale id && not !suppress_use ->
      let kind =
        match Hashtbl.find_opt tracked id with
        | Some `State -> "Xwi_core.state"
        | _ -> "Incidence.t"
      in
      emit ctx ~loc:e.exp_loc "stale-generation"
        (Printf.sprintf
           "%s %s was obtained before a Problem topology/capacity \
            mutation and used after it; re-commit the problem and \
            rebuild (Xwi_core.resize / re-read Problem.incidence) first"
           kind (Ident.name id))
    | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          expr self vb.vb_expr;
          bind_pattern vb.vb_pat)
        vbs;
      expr self body
    | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          bind_pattern c.c_lhs;
          Option.iter (expr self) c.c_guard;
          expr self c.c_rhs)
        cases
    | Texp_match (scrut, cases, _) ->
      expr self scrut;
      List.iter
        (fun c ->
          bind_pattern c.c_lhs;
          Option.iter (expr self) c.c_guard;
          expr self c.c_rhs)
        cases
    | Texp_apply (f, args) -> (
      let visit_args () =
        List.iter (fun (_, a) -> Option.iter (expr self) a) args
      in
      match head_ident f with
      | Some id when path_in id problem_mutators ->
        visit_args ();
        Hashtbl.iter (fun id _ -> Hashtbl.replace stale id ()) tracked
      | Some id when path_in id generation_clearers ->
        (* Feeding the stale state to [resize] (or committing) is the
           sanctioned refresh; uses inside the call are fine. *)
        suppress_use := true;
        Fun.protect
          ~finally:(fun () -> suppress_use := false)
          visit_args;
        Hashtbl.reset stale
      | _ ->
        (match f.exp_desc with Texp_ident _ -> () | _ -> expr self f);
        visit_args ())
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun item ->
      Hashtbl.reset tracked;
      Hashtbl.reset stale;
      it.structure_item it item)
    str.str_items

let check_structure ctx (str : structure) =
  check_main ctx str;
  if ctx.enabled "stale-generation" then check_stale ctx str

(* --------------------------------------------------------------- *)
(* unused-export: a whole-program pass. Every artifact under the cmt
   roots is walked once for value references and whole-module uses;
   every [val] of a checked interface that no other unit references is
   a finding, and one referenced only from test code is reported
   separately as informational.

   Paths are recorded raw (as written, local aliases substituted) and
   resolved afterwards against the table of every [module X = P] alias
   seen in any unit, so [Bf.solve] behind [module Bf =
   Nf_num.Bandwidth_function] and the library's own
   [Nf_num.Bandwidth_function] alias both land on
   [Nf_num__Bandwidth_function.solve]. *)

(* The module expression [module X = P] or [module X : S = P] binds X
   as an alias of P. *)
let alias_target (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) -> Some p
  | _ -> None

(* One artifact's raw value paths ("M.v") and raw module paths used as a
   whole; its structure-level aliases go into [aliases]. *)
let scan_unit ~aliases (infos : Cmt_format.cmt_infos) =
  let locals : (Ident.t, string) Hashtbl.t = Hashtbl.create 16 in
  let values = ref [] and wholes = ref [] in
  let prefix = ref infos.cmt_modname in
  let rec raw (p : Path.t) =
    match p with
    | Pident id -> (
      match Hashtbl.find_opt locals id with
      | Some r -> Some r
      | None -> if Ident.persistent id then Some (Ident.name id) else None)
    | Pdot (q, s) -> Option.map (fun r -> r ^ "." ^ s) (raw q)
    | Papply _ | Pextra_ty _ -> None
  in
  (* Only a binding at structure or signature level is reachable by path
     from other units ([global]). *)
  let bind ~global id name target =
    match (id, raw target) with
    | Some id, Some r ->
      Hashtbl.replace locals id r;
      if global then
        Option.iter (fun n -> Hashtbl.replace aliases (!prefix ^ "." ^ n) r) name
    | _ -> ()
  in
  let nested id name k =
    match name with
    | Some n ->
      let saved = !prefix in
      prefix := saved ^ "." ^ n;
      Option.iter (fun id -> Hashtbl.replace locals id !prefix) id;
      Fun.protect ~finally:(fun () -> prefix := saved) k
    | None -> k ()
  in
  let default = Tast_iterator.default_iterator in
  let expr self e =
    match e.exp_desc with
    | Texp_ident (Pdot (q, v), _, _) ->
      Option.iter (fun r -> values := (r ^ "." ^ v) :: !values) (raw q)
    | Texp_letmodule (id, _, _, me, body) when alias_target me <> None ->
      Option.iter (bind ~global:false id None) (alias_target me);
      self.Tast_iterator.expr self body
    | _ -> default.expr self e
  in
  let module_expr self me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Option.iter (fun r -> wholes := r :: !wholes) (raw p)
    | _ -> default.module_expr self me
  in
  let module_binding self mb =
    match alias_target mb.mb_expr with
    | Some p -> bind ~global:true mb.mb_id mb.mb_name.txt p
    | None ->
      nested mb.mb_id mb.mb_name.txt (fun () -> default.module_binding self mb)
  in
  let module_declaration self md =
    match md.md_type.mty_desc with
    | Tmty_alias (p, _) -> bind ~global:true md.md_id md.md_name.txt p
    | _ ->
      nested md.md_id md.md_name.txt (fun () ->
          default.module_declaration self md)
  in
  (* [open M] uses nothing itself: the uses after it are recorded. *)
  let open_declaration self (od : open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default.open_declaration self od
  in
  let it =
    {
      default with
      expr;
      module_expr;
      module_binding;
      module_declaration;
      open_declaration;
    }
  in
  (match infos.cmt_annots with
  | Implementation str -> it.structure it str
  | Interface sg -> it.signature it sg
  | _ -> ());
  (!values, !wholes)

(* Rewrite every alias prefix of a raw path to its target, to a fixed
   point ([fuel] bounds a cyclic table). *)
let resolve aliases raw =
  let rec go fuel raw =
    match String.split_on_char '.' raw with
    | [] -> raw
    | first :: rest ->
      List.fold_left
        (fun acc c ->
          let acc = acc ^ "." ^ c in
          match Hashtbl.find_opt aliases acc with
          | Some target when fuel > 0 -> go (fuel - 1) target
          | _ -> acc)
        first rest
  in
  go 32 raw

let unit_of path =
  match String.index_opt path '.' with
  | Some i -> String.sub path 0 i
  | None -> path

(* Test code: a unit under a [test] directory. *)
let repo_test_code path =
  List.mem "test" (List.tl (List.rev (String.split_on_char '/' path)))

type exports = { unused : Finding.t list; test_only : Finding.t list }

(* The [val]s a signature declares, with their module path; nested
   [module M : sig ... end] declarations included. Values an [include]
   brings in are the included module's, not this interface's. *)
let rec declared_values path (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> [ (path, vd) ]
      | Tsig_module { md_name = { txt = Some n; _ }; md_type; _ } -> (
        match md_type.mty_desc with
        | Tmty_signature sub -> declared_values (path ^ "." ^ n) sub
        | _ -> [])
      | _ -> [])
    sg.sig_items

let check_exports ?(enabled = fun _ -> true) ?(test_code = repo_test_code)
    ~config cmts files =
  let aliases = Hashtbl.create 256 in
  let units =
    if not (enabled "unused-export") then []
    else
      List.filter_map
        (fun path ->
          match Cmts.read path with
          | Ok infos ->
            let src = Option.fold ~none:"" ~some:Config.normalize infos.cmt_sourcefile in
            Some (infos.cmt_modname, src, scan_unit ~aliases infos)
          | Error _ -> None)
        (Cmts.artifacts cmts)
  in
  (* resolved value path, or module path used as a whole -> (source,
     is test code) of every other unit naming it *)
  let uses = Hashtbl.create 4096 in
  List.iter
    (fun (modname, src, (values, wholes)) ->
      List.iter
        (fun raw ->
          let key = resolve aliases raw in
          if unit_of key <> modname then
            Hashtbl.add uses key (src, test_code src))
        (values @ wholes))
    units;
  (* A value's users: those naming it, or its module or an enclosing one
     as a whole. *)
  let rec users_of path =
    Hashtbl.find_all uses path
    @
    match String.rindex_opt path '.' with
    | Some i -> users_of (String.sub path 0 i)
    | None -> []
  in
  let unused = ref [] and test_only = ref [] in
  if units <> [] then
    List.iter
      (fun ml ->
        let mli = Config.normalize ml ^ "i" in
        match Cmts.find_interface cmts mli with
        | Some cmti when config.Config.require_mli ml -> (
          match Cmts.read cmti with
          | Ok { Cmt_format.cmt_annots = Interface sg; cmt_modname; _ } ->
            let ctx = make_ctx ~enabled ~config mli in
            (* "Nf_num__Problem.v" is spelled "Problem.v" in source *)
            let shown = String.capitalize_ascii Filename.(remove_extension (basename mli)) in
            List.iter
              (fun (path, vd) ->
                let v = vd.val_name.txt in
                let name =
                  shown
                  ^ String.sub path (String.length cmt_modname)
                      (String.length path - String.length cmt_modname)
                  ^ "." ^ v
                in
                with_allows ~check_justification:true ctx vd.val_attributes
                @@ fun () ->
                match users_of (path ^ "." ^ v) with
                | [] ->
                  emit ctx ~loc:vd.val_loc "unused-export"
                    (Printf.sprintf
                       "%s is exported but no other unit uses it; delete it, \
                        or drop it from the interface if its own unit does"
                       name)
                | users when List.for_all snd users ->
                  test_only :=
                    Finding.v ~file:ctx.file ~line:vd.val_loc.loc_start.pos_lnum
                      ~col:0 ~rule:"unused-export"
                      (Printf.sprintf "%s is used only by tests (%s)" name
                         (String.concat ", "
                            (List.sort_uniq String.compare (List.map fst users))))
                    :: !test_only
                | _ -> ())
              (declared_values cmt_modname sg);
            unused := findings ctx @ !unused
          | Ok _ | Error _ -> ())
        | _ -> ())
      files;
  {
    unused = List.sort Finding.compare !unused;
    test_only = List.sort Finding.compare !test_only;
  }
