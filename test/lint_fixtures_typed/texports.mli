(* unused-export fixture, the exporting side: [texports_user.ml] names
   [direct] and [via_alias], [ttest_exports.ml] (test code under the
   fixture test's predicate) names [only_tests]; nothing names the rest. *)

val direct : int -> int

val via_alias : int -> int

val unused : int -> int

val only_tests : int -> int

val waived : int -> int
[@@nf.allow "unused-export -- the fixture's justified waiver"]

val waived_bare : int -> int
[@@nf.allow "unused-export"]
