(* Runtime enforcement of the hot-path zero-allocation invariant: the
   [@nf.hot] kernels must not allocate in steady state. nf_lint checks
   the same invariant syntactically; this audit measures it. The audit
   itself knows about the dev profile's -opaque boundary boxing (see
   Alloc_audit), so the suite passes under both build profiles. *)

module Alloc_audit = Nf_experiments.Alloc_audit

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
  Alcotest.(check int) "fourteen kernels audited" 14 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within limit (%.3f <= %.1f B/iter)"
           r.Alloc_audit.kernel r.Alloc_audit.bytes_per_iter
           r.Alloc_audit.limit)
        true
        (r.Alloc_audit.bytes_per_iter <= r.Alloc_audit.limit))
    results;
  Alcotest.(check bool) "ok agrees with the per-row limits" true
    (Alloc_audit.ok results);
  (* The solver kernels keep their floats inside one compilation unit, so
     they owe 0 bytes under *every* build profile — no boundary waiver. *)
  List.iter
    (fun r ->
      if r.Alloc_audit.kernel = "xwi_step"
         || r.Alloc_audit.kernel = "maxmin_solve_sparse"
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s holds the strict budget" r.Alloc_audit.kernel)
          true
          (r.Alloc_audit.bytes_per_iter <= Alloc_audit.budget))
    results

(* The serve loop's stopping test: [Kkt.check_into] on a caller-owned
   loads buffer allocates its report and nothing else (no loads array,
   no per-flow boxing), under every build profile. *)
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
        ] );
    ]
