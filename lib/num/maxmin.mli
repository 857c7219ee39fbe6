(** Weighted max-min fair allocation by water-filling.

    This is the allocation the Swift transport achieves in steady state
    (§4.1): every flow [i] gets rate [w_i * f_i] where [f_i] is the largest
    fair share such that no link is over-subscribed and every flow is
    bottlenecked at some saturated link. The fluid xWI iteration calls
    {!solve_sparse} once per iteration (Eq. 8 of the paper). The test
    suite checks it against a dense flow-major reference water-fill and
    against the max-min conditions themselves. *)

type sparse_workspace
(** Scratch state for {!solve_sparse}, sized for one {!Incidence.t}.
    Reusable across solves; not thread-safe. *)

val sparse_workspace : Incidence.t -> sparse_workspace

val sparse_refresh : sparse_workspace -> Incidence.t -> unit
(** [sparse_refresh ws inc] re-sizes [ws] in place for [inc], an
    incidence over the same links (another snapshot of the same
    {!Problem} after flow churn): the per-incidence counts are rebuilt
    and the per-flow arrays grow, with headroom, only when [inc] has
    more flows than they hold. A later {!solve_sparse} on [inc] is the
    one a fresh {!sparse_workspace} would run, bit for bit.
    @raise Invalid_argument if the link count differs. *)

val solve_sparse :
  sparse_workspace ->
  Incidence.t ->
  weights:Incidence.vec ->
  rates:Incidence.vec ->
  unit
(** CSR/CSC-driven water-filling into the caller's [rates] (length
    [n_flows]): progressive filling, where each round raises the common
    fill level until a link saturates and freezes the flows crossing it
    (a link within 1e-9 of its capacity counts as saturated). Each live
    link carries the fill level at which it saturates, updated only when
    one of its flows freezes. The live links sit in a flat slot array (a
    drained link is swap-removed), so a round is one pass over the live
    slots with a single compare per link, then a link-major freeze over
    the CSC columns of the links it saturates, in ascending link order.
    Work is O(rounds · live links) compares plus O(nnz) updates instead
    of O(rounds · nnz), and nothing is allocated. Rates agree with the
    test suite's dense reference water-fill to floating-point rounding,
    not bitwise. An active-weight sum that cancels (weights 1e-30 to
    1e300 on one link) is recounted, so the rates stay feasible where the
    reference's may not. Capacities are read from [Incidence.caps] on
    every call; for a {!Problem.incidence} that is {!Problem.caps}
    itself, so capacity changes need no refresh. Inputs are assumed
    validated (strictly positive weights and capacities). *)

val sparse_rounds : sparse_workspace -> int
(** Water-fill rounds of the last {!solve_sparse} on this workspace (each
    round raises the fill level to the next saturating link and freezes
    every flow on the links that saturate). Diagnostic. Not 1 at the xWI
    fixpoint: a fill takes one round per distinct bottleneck level. On a
    2560-flow, 768-link fat-tree solve, the fills of the first 1000
    iterations take 178 to 280 rounds, and the fill at the certified
    weights about 60; a 100-flow serve churn run averages about 16. *)

val sparse_saturated_links : sparse_workspace -> int
(** Links that saturated across all rounds of the last {!solve_sparse}
    (i.e. bottleneck links actually constraining the allocation). *)

val sparse_level : sparse_workspace -> float
(** Final fair-share fill level of the last {!solve_sparse}. *)
