(* Table 1: the utility-function menu and resulting objectives. *)

type row = { objective : string; flows : string list; rates : float array; }
type t = row list
val run : unit -> row list
val report : row list -> Report.t
