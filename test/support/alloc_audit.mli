(** Steady-state allocation audit of the [\@nf.hot] kernels.

    Fourteen kernels — Fheap push/top/drop, STFQ enqueue/[dequeue_exn], one
    event scheduled ({!Nf_engine.Sim.schedule_after_cat}) and dispatched
    on each of the engine's three scheduling paths (a calendar bucket,
    the overflow heap, a same-time tie), one packet hop through
    {!Nf_sim.Network} (a packet from the network's {!Nf_sim.Packet.pool},
    STFQ and the xWI engine on enqueue and dequeue, the link's transmit
    and arrival events, the release), one packet round trip (the data
    packet's hops, its delivery and ACK, the ACK's hops, the Swift
    sender's ACK processing, both releases), one pacing gap of a paced
    sender (DGD's and RCP*'s discipline: the pacing tick, its packet's
    hops and ACK, the RTO timer), one
    {!Nf_num.Xwi_core.step} on a k=4 fat tree with 64 flows, the
    stopping test's one-flow witness check ({!Nf_num.Kkt.flow_residual})
    on the same problem, one {!Nf_num.Maxmin.solve_sparse}, and two warm
    restarts ({!Nf_num.Xwi_core.resize} after a one-flow churn and its
    commit, on the same fat tree): [xwi_resize] polishes, as serve does
    (the churn swaps each flow between two paths, so many polishes grow
    their active set over several rounds), and [xwi_carry] passes
    [~polish:false], as the fluid xWI scheme's rebind does — are
    prebuilt, warmed past lazy workspace growth, and measured with
    {!bytes_per_iteration}. Each must allocate 0 bytes
    per steady-state iteration; a budget of 1 byte per iteration absorbs
    only measurement noise — a single boxed float already costs 16 bytes.
    The warm restarts are the exception by design: each is charged its
    bytes less those of the same churn and commit without the resize,
    and owes the new state (its record and its [rates] and [weights];
    its [prices] are the old state's array, handed down), polish or
    not. An owing kernel must measure its owed bytes to less
    than one word below and the budget above, so an owed count that goes
    stale in either direction fails.

    Driven by the [test_alloc] suite ([dune exec test/test_alloc.exe]).
    Run with the process-wide {!Nf_num.Diag} config cleared: an attached
    diag allocates one sample record per observed step by design, and a
    solver state only gets one while a postmortem directory is
    configured. *)

val bytes_per_iteration : ?warmup:int -> ?iters:int -> (unit -> unit) -> float
(** [bytes_per_iteration f] is the average number of bytes allocated per
    call of [f] in steady state: runs [f] [warmup] times (default 256) to
    reach steady state (lazy growth done, caches warm), then measures the
    [Gc.allocated_bytes] delta over [iters] calls (default 10_000),
    correcting for the probe's own allocation. A truly allocation-free
    kernel measures exactly [0.]. The closure [f] must not capture
    [float ref]s it assigns (each store would box). *)

type result = {
  kernel : string;
  bytes_per_iter : float;
  owed : float;  (** bytes it must allocate per iteration by design *)
}

val run : ?iters:int -> unit -> result list
(** Measure every audited kernel ([iters] forwarded to
    {!bytes_per_iteration}, default 10_000). *)

val within : result -> bool
(** [bytes_per_iter] is at most [owed] plus the budget and, when [owed]
    is positive, more than [owed] less one 8-byte word. *)
