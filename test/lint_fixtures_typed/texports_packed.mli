(* Used only as a whole: [texports_user.ml] packs it as a first-class
   module, which uses every value of its signature. *)

val a : int

val b : int
