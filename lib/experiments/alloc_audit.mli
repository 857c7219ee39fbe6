(** Steady-state allocation audit of the [\@nf.hot] kernels.

    Ten kernels — Fheap push/top/drop, STFQ enqueue/[dequeue_exn], one
    event scheduled ({!Nf_engine.Sim.schedule_after_cat}) and dispatched
    on each of the engine's three scheduling paths (a calendar bucket,
    the overflow heap, a same-time tie), one packet hop through
    {!Nf_sim.Network} (a packet from the network's {!Nf_sim.Packet.pool},
    STFQ and the xWI engine on enqueue and dequeue, the link's transmit
    and arrival events, the release), one packet round trip (the data
    packet's hops, its delivery and ACK, the ACK's hops, the Swift
    sender's ACK processing, both releases), one
    {!Nf_num.Xwi_core.step} on a k=4 fat tree with 64 flows, the
    stopping test's one-flow witness check ({!Nf_num.Kkt.flow_residual})
    on the same problem, and one {!Nf_num.Maxmin.solve_sparse} — are
    prebuilt, warmed past lazy workspace growth, and measured with
    {!Nf_util.Gcstats.bytes_per_iteration}. Each must allocate 0 bytes
    per steady-state iteration; {!budget} (1 byte/iter) absorbs only
    measurement noise — a single boxed float already costs 16 bytes.

    Exception: dune's dev profile compiles with [-opaque], which
    disables cross-unit inlining, so the kernels that take a raw float
    across a library boundary box it there: the Fheap and STFQ kernels
    two boxes per iteration, the packet hop four, the round trip
    thirty, the overflow schedule
    and the witness check one (the pushed key, the result). {!run} probes for
    that build profile and grants each of those kernels
    {!boundary_limit} of its box count; release builds (and the CI gate,
    which runs the audit under [--profile release]) hold every kernel to
    {!budget}.

    Driven by the [test_alloc] suite ([dune exec --profile release
    test/test_alloc.exe] for the strict budget).
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

val boundary_limit : int -> float
(** [boundary_limit n]: [n] boundary boxes (16 B each) plus 8 B of
    headroom, strictly below one more box — 40.0 bytes per iteration for
    two. *)

val run : ?iters:int -> unit -> result list
(** Measure every audited kernel ([iters] forwarded to
    {!Nf_util.Gcstats.bytes_per_iteration}, default 10_000). *)

val ok : result list -> bool
(** Every kernel within its [limit]. *)
