(** Index of [.cmt]/[.cmti] artifacts for the typed stage.

    Built once per run by scanning the given roots (typically
    [_build/default], or ["."] when invoked from inside the build
    context) for [*.cmt] and [*.cmti] files, reading each one's recorded
    source path. The scan descends into dot-directories (dune's
    [.objs]/[.eobjs]) and is deterministic. *)

type t

val index : roots:string list -> t
(** Nonexistent roots are skipped silently (a fresh checkout has no
    [_build] yet: the typed stage just finds no cmts). An artifact that
    cannot be read is kept in {!unreadable}, not skipped. *)

val size : t -> int
(** Number of indexed implementation source files. *)

val unreadable : t -> (string * string) list
(** Artifacts the scan could not read, with the reason, in path order. *)

val artifacts : t -> string list
(** Every readable implementation and interface artifact, sorted. *)

val read : string -> (Cmt_format.cmt_infos, string) result
(** Read one artifact. Only the errors a read can raise (bad magic
    number or version, truncation, I/O) become [Error]. *)

val find : t -> string -> string option
(** [find t source_path] is the cmt path compiled from [source_path].
    Paths match exactly, or by ['/']-boundary suffix in either
    direction (lint roots and dune's compilation root may differ). *)

val find_interface : t -> string -> string option
(** [find_interface t mli_path]: the same lookup over the [.cmti]
    artifacts. *)

val load : string -> (Typedtree.structure, string) result
(** Read one cmt file's implementation typedtree. *)
