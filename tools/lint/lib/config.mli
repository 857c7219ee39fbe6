(** Path-scoping policy for the rules: which files each path-conditional
    rule applies to. Predicates receive the path exactly as the driver
    saw it (normalized to '/' separators, leading "./" stripped). *)

type t = {
  wallclock_exempt : string -> bool;
      (** files allowed to read the wall clock ([Unix.gettimeofday],
          [Sys.time]): the profiler *)
  float_strict : string -> bool;
      (** files where polymorphic [=]/[compare]/[min]/[max] on operands
          not provably float-free is a finding *)
  hashtbl_ordered : string -> bool;
      (** files where unordered [Hashtbl.iter/fold/to_seq] traversal is a
          finding unless the result feeds a sort *)
  require_mli : string -> bool;
      (** files whose module must ship a [.mli] *)
  serve_loop : string -> bool;
      (** files hosting the single-threaded serve dispatch, where
          blocking Unix calls are findings *)
}

(** '/'-normalized path with any leading "./" removed. *)
val normalize : string -> string

(** The committed repo policy: wall clock only in [Profile],
    float-strictness in [lib/num], [lib/fluid], [lib/serve] and
    [lib/engine], ordered-output and [.mli] coverage across [lib/], no
    blocking calls in [lib/serve] outside the client driver. Assumes paths relative to
    the repo root. *)
val repo_default : t

(** Every rule active on every path (fixture tests). *)
val strict : t
