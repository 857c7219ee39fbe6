(** Bandwidth functions (BwE, §2 and Figures 2/9/10 of the paper).

    A bandwidth function [B(f)] maps a dimensionless {e fair share} [f] to
    the bandwidth a flow should receive; the allocation for flows sharing
    links is max-min in the fair shares (water-filling), which
    {!single_link_allocation} computes for flows on one link. The paper
    shows (Eq. 2) that the utility [U(x) = ∫ F(τ)^-α dτ] with
    [F = B^-1] makes the NUM solution approach that allocation as [α]
    grows; [α ≈ 5] suffices in practice (§6.3). The solvers read that
    utility only through [U' = F^-α] and its inverse, so {!utility}
    builds those two and never the integral. *)

type t

val create : Nf_util.Piecewise.t -> t
(** The piecewise-linear [B]. Requirements: [B(0) = 0] at the first
    breakpoint [(0, 0)], non-decreasing, and strictly increasing overall
    (flat segments are allowed only if a later segment rises; use
    {!val-create_strict} to pre-process operator curves that have truly
    flat steps).
    @raise Invalid_argument if the first point is not [(0, 0)]. *)

val create_strict : ?slope_floor:float -> Nf_util.Piecewise.t -> t
(** Like {!create} but replaces every flat segment's slope with
    [slope_floor] (default 1e-6 of the curve's maximum value per unit fair
    share), making [B] strictly increasing so that [F = B^-1] exists.
    This is the standard trick for "strict priority" steps like Figure 2's
    flow 2, which is flat at 0 until [f = 2]. *)

val bandwidth : t -> float -> float
(** [B(f)]; [f < 0] is an error. *)

val fair_share : t -> float -> float
(** [F(x) = B^-1(x)] for [x >= 0]. *)

val utility : t -> alpha:float -> Utility.t
(** The Table 1 (last row) utility for this bandwidth function, an
    {!Utility.Opaque} one: [U'(x) = F(x)^-α] (with [x] floored at 1e-9 of
    the curve's largest breakpoint value, and at 1e-30, as [F(0) = 0]) and
    [U'^-1(p) = B(p^(-1/α))]. *)

val single_link_allocation : bfs:t array -> capacity:float -> float array * float
(** The water-filling allocation of §2: the largest common fair share [f*]
    with [Σ B_i(f_star) <= capacity], returned with the per-flow bandwidths
    [B_i(f_star)]. Figure 2's example. *)

val fig2_flow1 : unit -> t
(** Figure 2's blue flow: strict priority for the first 10 Gbps
    ([f <= 2]), then slope 5 Gbps per unit fair share. Values in bps. *)

val fig2_flow2 : unit -> t
(** Figure 2's red flow: nothing until [f = 2], then twice flow 1's slope
    up to 10 Gbps at [f = 2.5], then (nearly) flat. Values in bps. *)
