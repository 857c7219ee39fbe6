(* Table 2: default simulator/algorithm parameters as a data table. *)

type row = { scheme : string; parameters : string; }
type t = row list
val run : unit -> row list
val report : row list -> Report.t
