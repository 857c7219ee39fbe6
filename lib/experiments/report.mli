(** Structured experiment results.

    Every experiment produces a {!t}: a titled table (column schema +
    typed rows) plus free-form note lines for the headline numbers and
    paper comparisons. Formatting lives here, in the three renderers —
    experiments themselves are pure data producers, which is what lets
    {!Runner} execute them on worker domains and still merge output
    deterministically (a report renders to the same bytes no matter
    where or when it ran). *)

type cell =
  | Text of string
  | Int of int
  | Float of float  (** rendered with ["%.6g"] in text, ["%.12g"] in JSON/CSV *)

type t = {
  title : string;
  columns : string list;  (** header of the table; every row must match *)
  rows : cell list list;
  notes : string list;  (** headline numbers, paper quotes, caveats *)
  records : (string * Nf_sim.Record.t) list;
      (** the labelled run record of each packet-level network the
          experiment kept, in run order, for [nf_run exp --record]; the
          renderers ignore it *)
}

val make :
  title:string -> columns:string list -> ?notes:string list -> cell list list -> t
(** A report with no [records]; an experiment that keeps its networks'
    records sets them by record update.
    @raise Invalid_argument if a row's width differs from [columns]. *)

val text : string -> cell

val int : int -> cell

val float : float -> cell

val to_text : t -> string
(** Aligned plain-text table: title, header, rows, then notes. *)

val json : t -> Nf_util.Json.t
(** [{"title":...,"columns":[...],"rows":[[...]],"notes":[...]}]. Float
    cells keep full precision; non-finite ones print as [null]. *)

val to_csv : t -> string
(** RFC-4180-style: header line, one line per row; notes appended as
    [# ...] comment lines. *)
