(** KKT residuals for a NUM problem (Eqs. 5–6 of the paper).

    Rates and prices are optimal iff they are feasible and

    - stationarity: for every group [g] and every {e used} sub-flow [i]
      (positive rate), [U'_g(y_g) = Σ_{l ∈ L(i)} p_l]; unused sub-flows
      must have path price at least [U'_g(y_g)] (otherwise sending on them
      would improve the objective);
    - complementary slackness: [p_l (Σ_{i ∈ S(l)} x_i - c_l) = 0].

    The residuals reported here are all relative and dimensionless, so a
    report with every field below ~1e-6 certifies (numerically) that an
    allocation solves the NUM problem — this is how the test suite
    validates solvers without trusting any one of them. *)

type report = {
  stationarity : float;
    (** max over used sub-flows of
        [|U'_g(y_g) - path_price| / max(U'_g(y_g), tiny)] *)
  unused_direction : float;
    (** max over unused sub-flows of
        [(U'_g(y_g) - path_price)+ / max(U'_g(y_g), tiny)]: positive when
        an idle sub-flow sees a path cheaper than the group's marginal
        utility. A sub-flow is unused when its rate is at most
        [used_threshold · max(y_g, 1e-30)] (see {!check_into}). A
        single-path flow is its own group, so it is unused only when its
        rate is at most [used_threshold · 1e-30] (1e-36 by default): a
        zero rate, or the ~1e-280 rates a carried warm start can give
        new flows through xWI's 1e-30 weight floor. So this term is not
        always 0 for single-path problems. *)
  feasibility : float;  (** max over links of [(load - cap)+ / cap] *)
  slackness : float;
    (** max over links of [p_l * (cap - load)+ / (p_ref * cap)], where
        [p_ref] is the largest link price (0 if all prices are 0). *)
}

val worst : report -> float
(** The largest of the four residuals. *)

val default_used_threshold : float
(** 1e-6, {!check_into}'s [used_threshold] when none is given. *)

val check_into :
  ?used_threshold:float ->
  ?witness:int ref ->
  Problem.t ->
  rates:float array ->
  prices:float array ->
  loads:float array ->
  report
(** The residuals of [rates] and [prices], computed in one sweep over the
    problem's {!Incidence.t}. [loads] (length [n_links]) is scratch: it
    is overwritten with the link loads of [rates], so a buffer reused
    across calls needs no clearing. Allocates only the report.
    [used_threshold] (default {!default_used_threshold}) is the fraction
    of the group rate below which a sub-flow counts as unused. If
    [witness] is given, it is set to the flow with the largest
    {!flow_residual} (the first such flow, or the first with a NaN
    residual; -1 when there are no flows).
    @raise Invalid_argument on a rates, prices or loads length that does
    not match the problem. *)

val check :
  ?used_threshold:float ->
  Problem.t ->
  rates:float array ->
  prices:float array ->
  report
(** {!check_into} with a fresh loads buffer. *)

val flow_residual :
  used_threshold:float ->
  Problem.t ->
  rates:float array ->
  prices:float array ->
  int ->
  float
(** [flow_residual ~used_threshold p ~rates ~prices i] is flow [i]'s own
    term in the report {!check_into} gives with the same
    [used_threshold]: its stationarity term if it is used, its
    unused-direction term otherwise, bit for bit. So the max over all
    flows is [max stationarity unused_direction], and a flow whose
    residual is not [<= tol] proves that {!worst} is not [<= tol]
    either. Costs the flow's group and path, not the problem, and
    allocates nothing where it is inlined (release builds).
    @raise Invalid_argument on a rates or prices length that does not
    match the problem, or a flow id out of range. *)

val pp : Format.formatter -> report -> unit
