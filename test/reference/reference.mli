(** Legacy (pre-sparse) xWI kernels and a dual gradient NUM solver,
    kept as the test oracle.

    These are the original list/array-walking implementations of the
    quantities the sparse CSR/CSC kernels now compute: path prices, link
    loads, Eq. 7 weights, the weighted max-min water-fill (Eq. 8), the
    Eqs. 9–11 price update, and the full xWI step. They are intentionally slow, allocate freely, and must not be
    called from production paths — qcheck properties compare the sparse
    results against them (see test/test_num.ml). They read only the
    problem's flow paths and its groups' member lists (the
    {!Nf_num.Incidence.t}'s group rows), building the link → flows map
    S(l) themselves, never the incidence's link columns or sweeps. *)

open Nf_num

val link_loads : Problem.t -> rates:float array -> float array

val link_flows : Problem.t -> int array array
(** [S(l)] for every link: the flows crossing it, ascending, each once
    even if its path repeats the link. *)

type allocation = {
  rates : float array;
  bottleneck : int array;
    (** [bottleneck.(i)] is the link at which flow [i] froze. *)
  fair_share : float array;  (** [f_i = rates.(i) / w_i] *)
}

val water_fill :
  caps:float array -> paths:int array array -> weights:float array -> allocation
(** The weighted max-min allocation by the dense flow-major water-fill
    (progressive filling: every round scans all links for the first to
    saturate, then all flows for those crossing a saturated link), the
    oracle {!Nf_num.Maxmin.solve_sparse} is checked against.
    Requirements: every path non-empty with valid link ids, every weight
    strictly positive, every capacity strictly positive.
    @raise Invalid_argument if the requirements are violated. *)

val maxmin : Problem.t -> weights:float array -> allocation
(** {!water_fill} over the problem's capacities and flow paths. *)

val is_maxmin :
  caps:float array -> paths:int array array -> weights:float array ->
  float array -> bool
(** Check (up to relative tolerance 1e-6) that an allocation is the
    weighted max-min one: it is feasible and every flow crosses a
    saturated link on which its normalized share [x_i / w_i] is maximal.
    Validates its inputs as {!water_fill} does. *)

val step :
  Problem.t ->
  Xwi_core.params ->
  prices:float array ->
  rates:float array ->
  weights:float array ->
  unit
(** One full legacy xWI iteration, mutating all three arrays in place
    with the same ordering as {!Xwi_core.step}: weights from [prices] and
    the previous [rates], max-min rates for those weights, then the price
    update. *)

val utility_value : Utility.t -> float -> float
(** [U(x)] at [max x 1e-12] for an α-fair utility: [w ln x] for [Log],
    [w^α x^(1-α) / (1-α)] for [Power]; the dual objective of
    {!solve_dual} sums it. The library has no [U(x)]: its solvers read
    only [U'] and [U'^-1].
    @raise Invalid_argument on an [Opaque] utility. *)

val solve_dual : ?tol:float -> ?max_iters:int -> Problem.t -> Oracle.solution
(** The NUM optimum of a single-path problem by projected gradient
    descent on the dual, with a backtracking line search from xWI's seed
    prices ({!Xwi_core.seed}). It shares only the seed, [Utility]'s
    derivatives and {!Kkt.check} with xWI and the Newton polish, and
    computes path prices and link loads with the kernels above.
    [tol] (default 1e-8) bounds the worst KKT residual of the returned
    solution; the method runs for up to [max_iters] (default 300,000)
    iterations.
    @raise Invalid_argument on multipath problems or an [Opaque] utility.
    @raise Oracle.Did_not_converge if the residual target is not met. *)
