(** The repository's one JSON codec: a value type, a strict parser, a
    compact printer and total accessors.

    Every JSON reader and writer goes through this module: the serve
    wire protocol, the run records, metric and trace exports, experiment
    reports, the benchmark's result lines, the benchdiff report, and the
    lint report. No external dependency: the toolchain image has no
    yojson.

    Numbers print round-trippably: an integral value below [1e15] as an
    integer (what [%.0f] prints, [-0] included), any other finite value
    with [%.17g], so parsing the output gives back the same bits. JSON
    has no spelling for nan or ±infinity; those print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** insertion order preserved *)

val parse : string -> (t, string) result
(** Parse one complete JSON document; trailing garbage (other than
    whitespace) is an error. Errors read ["line L, column C: msg"]
    (1-based). [\uXXXX] escapes decode to UTF-8; a surrogate pair
    decodes to its one 4-byte scalar, and a lone surrogate is an
    error. A number is the longest run of the bytes [0-9 + - . e E];
    it must spell an RFC 8259 number (so [01], [1.], [-.5] and [1.e5]
    are errors), and reads to the bits [float_of_string] gives it. *)

val parse_file : string -> (t, string) result
(** [parse] on a file's contents; the error names the file, and I/O
    failures become [Error _] too. *)

val to_string : t -> string
(** Compact rendering: no whitespace between tokens. *)

(** {2 Accessors} — total, for decoding. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj] ([None] on absence or a
    non-object). *)

val to_float : t -> float option

val to_int : t -> int option
(** [Num] with an integral value in [int] range. *)

val to_str : t -> string option

val to_list : t -> t list option

val obj_int : string -> t -> int option
(** [member] composed with [to_int]; same for the others. *)

val obj_float : string -> t -> float option

val obj_str : string -> t -> string option

val obj_list : string -> t -> t list option
