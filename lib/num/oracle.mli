(** The exact NUM solve ("Oracle" of §6): xWI run to stationarity,
    with a Newton polish first where one applies. It handles multipath
    groups, and its output is certified by the returned KKT residuals,
    checked against an explicit tolerance, so callers never have to
    trust the solver blindly. A {!carry} restarts it from the previous
    solve's certified state, so a sequence of similar problems is solved
    warm. *)

type solution = {
  rates : float array;  (** per sub-flow *)
  group_rates : float array;
  prices : float array;
  iterations : int;
  kkt : Kkt.report;
}

exception Did_not_converge of string

type carry
(** The last certified xWI state of a sequence of solves over one link
    set, or nothing. *)

val carry : unit -> carry
(** An empty carry: the first {!solve} given it starts cold. *)

val solve : ?tol:float -> ?max_iters:int -> ?carry:carry -> Problem.t -> solution
(** xWI fixed point run to stationarity; [tol] (default 1e-6) bounds the
    worst KKT residual.

    The first run is one {!Xwi_core.solve}: from {!Xwi_core.init} (the
    Newton polish of zero prices where it applies, else xWI's seed)
    without a carry or with an empty one, and from {!Xwi_core.resize} of
    a carried state (its prices, or their Newton polish).
    The polish applies to [Log]/[Power] single-path problems over at
    most 256 busy links; where it succeeds the cold start needs no
    iteration, and where it fails xWI runs from its seed. Successive
    populations over the same links share most flows, so a carried
    start needs few iterations, often none; the semi-dynamic harness
    and [Dynamic.run_ideal] solve their per-event targets this way.

    xWI runs for up to [max_iters] (default 60,000) iterations. On
    success the final state goes into the carry; on failure the carry is
    emptied, so the next solve starts cold.
    @raise Invalid_argument if the carried state's link count differs
    from the problem's (the carry is left as it was).
    @raise Did_not_converge if the residual target is not met. *)
