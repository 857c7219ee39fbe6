(** Active-set Newton polish of a carried price vector: the math behind
    {!Xwi_core.resize}'s polished warm start and, from zero prices,
    {!Xwi_core.init}'s polished cold start (DESIGN.md "Warm restart").

    From the prices an xWI state carries across a flow-churn delta and
    the rates they induce, it guesses the set A of links that are full at
    the new optimum and solves, by damped Newton, for prices on A alone
    at which every link of A is exactly full with
    [x_i = U_i'^-1(Σ_{l ∈ L(i) ∩ A} p_l)], correcting A as it goes:
    - A starts as the links priced above 1e-3·p_max, plus, for each flow
      that crosses none of them, its lowest-id link saturated by the
      carried rates;
    - links whose flow sets are identical collapse onto the one with the
      smallest capacity (lowest id on ties), each time A is formed or
      grows;
    - each Newton solve starts with one proportional price step: every
      link of A priced above zero whose flows share one α moves to
      [p_l (load_l / c_l)^α], kept only if the merit
      [Σ (F_l / c_l)²] strictly falls. It fills exactly every link
      whose flows cross no other priced link, so a solve it settles
      builds no factor;
    - the system matrix is [R_A D R_Aᵀ] with [D_i = -dx_i/dP_i], with a
      1e-8 relative ridge, factored by a Cholesky (dense storage, links
      in a static minimum-degree order); the factor's nonzero pattern is
      computed once per active set, and each factorization clears and
      updates only that pattern;
    - a backtracking line search keeps every path price positive, and a
      solve stops at [max_l |F_l| / c_l <= 1e-12] within 20 steps, or
      unconverged at the first accepted step that leaves a link of A
      priced below zero;
    - links a solve leaves negatively priced, converged or not, are
      dropped at once and the rest re-solved from their prices; so are
      the links a Newton step would price below zero when its line
      search finds no descent (a singular [R_A D R_Aᵀ]);
    - after a converged solve with no negative price, every busy link
      outside A that the rates [x(P_A)] overload by more than 1e-9 of
      its capacity joins A at price 0 and A is re-solved; with none, the
      polish succeeds;
    - at most 160 Newton steps per polish over all its solves, and A
      never above 256 links.

    On nfbench's [serve_churn] stream a polish takes about 2.7 Newton
    steps on average, and nearly half of the polishes none. The counters [nf_xwi_polish_added_links_total] and
    [nf_xwi_polish_retries_total] (unconverged solves retried without
    their negatively priced links) count the corrections, and
    [nf_xwi_polish_newton_steps_total] the Newton steps (numeric
    factorizations). All three count every polish, {!Xwi_core.init}'s
    cold ones and {!Xwi_core.resize}'s warm ones alike.

    Deterministic: every choice is by link or flow id. *)

type t
(** Scratch sized on demand, the |A|-sized buffers growing by half again
    when an active set outgrows them: once the workspace has served a
    problem of the same size and an active set as large, a polish
    allocates nothing. Not for concurrent use from several domains. *)

val create : unit -> t
(** An empty workspace (no buffers until the first {!solve}). *)

val eligible : Problem.t -> bool
(** Every group is a single flow and every utility is [Log] or [Power]
    ({!Utility.t}); otherwise there is no closed-form [U'^-1] to
    differentiate or no single path price per group, and the polish does
    not apply. *)

val max_active : int
(** 256: the largest active set a polish factors. A dense Cholesky is
    O(|A|³), so past this the polish costs more than the xWI iterations
    it saves, and {!solve} fails. [Xwi_core.init] skips the polish when
    more links than this carry a flow. *)

val solve :
  t ->
  Problem.t ->
  prices:float array ->
  carried:'a ->
  rates:(Problem.t -> 'a -> float array) ->
  out:float array ->
  bool
(** [solve ws problem ~prices ~carried ~rates ~out] polishes the carried
    [prices] (length [n_links]). On success it writes the polished prices
    into [out] (zero off the final active set) and returns [true]. It
    returns [false], leaving [out] unspecified, when the problem is not
    {!eligible}-shaped, some flow crosses no link of the active set, the
    active set has more than 256 links, a solve fails with no negative
    price to drop, or the 160 Newton steps run out. On success every
    returned price is [>= 0], and the rates the prices induce load no
    link above [(1 + 1e-9)] times its capacity.

    [rates problem carried] must return the allocation the carried
    prices induce (length [n_flows]). Only a flow that crosses no link
    priced above 1e-3·p_max reads it, so [solve] calls it at most once,
    at the first such flow, and not at all when there is none: the
    caller's water-fill of the carried prices runs only when it is
    read. A closed top-level function with its data in [carried] keeps
    the call allocation-free.
    @raise Invalid_argument on a length that does not match the problem. *)
