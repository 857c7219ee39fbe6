type t = {
  wallclock_exempt : string -> bool;
  float_strict : string -> bool;
  hashtbl_ordered : string -> bool;
  require_mli : string -> bool;
  serve_loop : string -> bool;
}

let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  let rec strip p =
    if String.length p >= 2 && String.sub p 0 2 = "./" then
      strip (String.sub p 2 (String.length p - 2))
    else p
  in
  strip path

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let has_suffix ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix)
     = suffix

(* The repo policy. Paths are matched as given on the command line,
   normalized to '/' separators with any leading "./" stripped, so the
   linter must be invoked from the repository root (as the dune alias and
   CI do). *)
let repo_default =
  {
    (* Profile owns the wall clock. *)
    wallclock_exempt = (fun p -> has_suffix ~suffix:"/profile.ml" (normalize p));
    (* The numeric kernels plus everything downstream of them that moves
       floats (the serve daemon's epochs, the event engine's timestamps):
       a polymorphic compare on floats here is either a nan-semantics bug
       waiting to happen or a silent deoptimization. The typed stage
       resolves operand types exactly, so widening the scope beyond
       num/fluid costs no false positives. *)
    float_strict =
      (fun p ->
        let p = normalize p in
        has_prefix ~prefix:"lib/num/" p
        || has_prefix ~prefix:"lib/fluid/" p
        || has_prefix ~prefix:"lib/serve/" p
        || has_prefix ~prefix:"lib/engine/" p);
    (* Every library module can feed Record/Report/Metrics output, so
       unordered Hashtbl traversal is banned across lib/ unless the result
       is sorted in place. *)
    hashtbl_ordered = (fun p -> has_prefix ~prefix:"lib/" (normalize p));
    require_mli = (fun p -> has_prefix ~prefix:"lib/" (normalize p));
    (* The single-threaded select dispatch: a blocking call here stalls
       every connected client. The blocking Client driver is exempt (it
       is the other side of the wire). *)
    serve_loop =
      (fun p ->
        let p = normalize p in
        has_prefix ~prefix:"lib/serve/" p
        && not (has_suffix ~suffix:"/client.ml" p));
  }

(* Every path-scoped rule active everywhere, wall-clock nowhere exempt:
   what the fixture tests run under. *)
let strict =
  {
    wallclock_exempt = (fun _ -> false);
    float_strict = (fun _ -> true);
    hashtbl_ordered = (fun _ -> true);
    require_mli = (fun _ -> true);
    serve_loop = (fun _ -> true);
  }
