(** Float comparison for test assertions. *)

val rel_eq : ?rel:float -> float -> float -> bool
(** [rel_eq a b] is [true] iff [|a - b| <= rel *. max 1. (max |a| |b|)]
    ([rel] defaults to 1e-9). The [max 1.] floor makes the test behave
    absolutely near zero. *)
