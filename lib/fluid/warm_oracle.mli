(** The exact NUM solver for a sequence of similar problems: xWI to a KKT
    certificate, started from the link prices of the previous solve.

    The semi-dynamic harness solves its per-event targets with it, and
    {!Dynamic.run_ideal} its per-arrival/departure allocations; successive
    populations share most flows, so a warm start needs few iterations. *)

type t

val create : n_links:int -> t
(** No carried prices yet: the first {!solve} starts cold. *)

val solve : ?tol:float -> t -> Nf_num.Problem.t -> float array
(** Optimal per-flow rates (a fresh array), certified: the KKT residual
    ({!Nf_num.Kkt.worst}) is at most [tol] (default 1e-5). Runs xWI from
    the carried prices for up to 3,000 iterations, then, if that has not
    converged, from a cold start with heavier price averaging
    ([beta = 0.8]) for up to 20,000. The certified prices are carried to
    the next call.
    @raise Invalid_argument if the problem's link count differs.
    @raise Nf_num.Oracle.Did_not_converge if the result does not
    certify. *)
