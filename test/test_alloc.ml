(* Runtime enforcement of the hot-path zero-allocation invariant: the
   [@nf.hot] kernels must not allocate in steady state. nf_lint checks
   the same invariant syntactically; this audit measures it. *)

module Alloc_audit = Nf_testkit.Alloc_audit

(* The audit's probe: an allocating loop measures its bytes, an empty
   one measures clean. *)
let test_bytes_per_iteration () =
  let sink = ref [||] in
  let allocating () =
    sink := Sys.opaque_identity (Array.make 8 0.)
  in
  let b = Alloc_audit.bytes_per_iteration ~warmup:16 ~iters:2_000 allocating in
  (* 8 floats + header = 72 bytes on 64-bit; quantization noise is
     amortized over the iteration count. *)
  Alcotest.(check bool)
    (Printf.sprintf "allocating loop measured (%.1f B/iter)" b)
    true
    (b >= 64. && b <= 96.);
  let clean () = () in
  let b0 = Alloc_audit.bytes_per_iteration ~warmup:16 ~iters:2_000 clean in
  Alcotest.(check bool)
    (Printf.sprintf "empty loop measures clean (%.3f B/iter)" b0)
    true (Float.abs b0 <= 1.)

let test_audit_within_limits () =
  let added =
    Nf_util.Metrics.counter Nf_util.Metrics.global "nf_xwi_polish_added_links_total"
  in
  let before = Nf_util.Metrics.counter_value added in
  let results = Alloc_audit.run ~iters:2_000 () in
  (* Only the xwi_resize kernel polishes: its churn must have made the
     polish grow its active set, so the bytes it measured include
     multi-round polishes. *)
  Alcotest.(check bool) "xwi_resize drove polishes that added links" true
    (Nf_util.Metrics.counter_value added > before);
  Alcotest.(check int) "fifteen kernels audited" 15 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within bounds (%.3f B/iter, owes %.0f)"
           r.Alloc_audit.kernel r.Alloc_audit.bytes_per_iter r.Alloc_audit.owed)
        true (Alloc_audit.within r))
    results

(* An owing kernel's bound is two-sided: a measurement a word or more
   short of its owed bytes fails as one over budget does, so an owed
   count that goes stale upward cannot pass. *)
let test_within_two_sided () =
  let row bytes_per_iter owed =
    Alloc_audit.within { Alloc_audit.kernel = "k"; bytes_per_iter; owed }
  in
  Alcotest.(check bool) "clean kernel at 0" true (row 0. 0.);
  Alcotest.(check bool) "clean kernel over budget" false (row 16. 0.);
  Alcotest.(check bool) "owed bytes measured" true (row 1872. 1872.);
  Alcotest.(check bool) "owed bytes within a word below" true (row 1865. 1872.);
  Alcotest.(check bool) "owed count stale upward" false (row 1872. 1880.);
  Alcotest.(check bool) "owed count stale downward" false (row 1880. 1872.)

(* The serve loop's stopping test: [Kkt.check_into] on a caller-owned
   loads buffer allocates its report and nothing else (no loads array,
   no per-flow boxing). *)
let test_kkt_check_into_allocates_only_report () =
  let module Problem = Nf_num.Problem in
  let module Utility = Nf_num.Utility in
  let caps = Array.init 8 (fun l -> 1. +. float_of_int l) in
  let groups =
    List.init 24 (fun g ->
        let utility =
          if g mod 2 = 0 then Utility.proportional_fair ()
          else Utility.alpha_fair ~alpha:2. ()
        in
        let paths =
          if g mod 3 = 0 then [ [| g mod 8; (g + 3) mod 8 |]; [| (g + 5) mod 8 |] ]
          else [ [| g mod 8; (g + 1) mod 8 |] ]
        in
        { Problem.utility; paths })
  in
  let p = Problem.create ~caps ~groups in
  let st = Nf_num.Xwi_core.init p in
  let rates = st.Nf_num.Xwi_core.rates and prices = st.Nf_num.Xwi_core.prices in
  let loads = Array.make (Problem.n_links p) 0. in
  let check () = Nf_num.Kkt.check_into p ~rates ~prices ~loads in
  ignore (check ());
  let calls = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (check ()))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  (* A flat record of four floats: header + 4 words. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per check <= 5" words)
    true (words <= 5.)

let () =
  Alcotest.run "nf_alloc"
    [
      ( "audit",
        [
          Alcotest.test_case "hot kernels steady-state clean" `Quick
            test_audit_within_limits;
          Alcotest.test_case "kkt check_into allocates only its report" `Quick
            test_kkt_check_into_allocates_only_report;
          Alcotest.test_case "owed bounds are two-sided" `Quick
            test_within_two_sided;
        ] );
      ( "gcstats",
        [
          Alcotest.test_case "bytes per iteration" `Quick
            test_bytes_per_iteration;
        ] );
    ]
