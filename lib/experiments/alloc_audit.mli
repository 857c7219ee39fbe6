(** Steady-state allocation audit of the [\@nf.hot] kernels.

    Five kernels — Fheap push/top/drop, STFQ enqueue/[dequeue_exn], one
    {!Nf_num.Xwi_core.step} on a k=4 fat tree with 64 flows, the
    stopping test's one-flow witness check ({!Nf_num.Kkt.flow_residual})
    on the same problem, and one {!Nf_num.Maxmin.solve_sparse} — are
    prebuilt, warmed past lazy workspace growth, and measured with
    {!Nf_util.Gcstats.bytes_per_iteration}. Each must allocate 0 bytes
    per steady-state iteration; {!budget} (1 byte/iter) absorbs only
    measurement noise — a single boxed float already costs 16 bytes.

    Exception: dune's dev profile compiles with [-opaque], which
    disables cross-unit inlining, so the kernels that take a raw float
    across a library boundary box it there: the two Fheap kernels (its
    [~key] argument and [top_key] result, two boxes per iteration) and
    the witness check (its result, one box). {!run} probes for that
    build profile and grants those three kernels {!boundary_limit};
    release builds (and the CI gate, which runs the audit under
    [--profile release]) hold every kernel to {!budget}.

    Driven by [bench/main.exe --audit-alloc] and the [test_alloc] suite.
    Run with the process-wide {!Nf_num.Diag} config cleared: an attached
    diag allocates one sample record per observed step by design (the
    xwi kernel detaches its own diag defensively). *)

type result = {
  kernel : string;
  bytes_per_iter : float;
  limit : float;  (** {!budget}, or {!boundary_limit} on -opaque builds *)
}

val budget : float
(** 1.0 byte per iteration. *)

val boundary_limit : float
(** 40.0 bytes per iteration: two boundary boxes (32 B) plus headroom,
    strictly below a third box. *)

val run : ?iters:int -> unit -> result list
(** Measure every audited kernel ([iters] forwarded to
    {!Nf_util.Gcstats.bytes_per_iteration}, default 10_000). *)

val ok : result list -> bool
(** Every kernel within its [limit]. *)

val pp : Format.formatter -> result list -> unit
