(** The transport protocols, as one static list: the lookup entry point
    for every protocol by name. *)

val builtins : Protocol.t list
(** numfabric, numfabric-srpt, dgd, rcp, dctcp, pfabric. *)

val find : string -> Protocol.t option

val get : string -> Protocol.t
(** @raise Invalid_argument on an unknown name (the message lists the
    known names). *)

val names : string list
(** The names of {!builtins}, sorted. *)
