(* Used only as a whole: [texports_user.ml] includes it. *)

val c : int
