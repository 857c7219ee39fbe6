(* Stands in for a test suite: the fixture test classifies files named
   ttest_* as test code. *)

let check () = Texports.only_tests 0 = 4
