(** Fluid DGD: the Dual Gradient Descent baseline (§3, Low & Lapsley), in
    the enhanced form the paper actually simulates (§6, Eq. 14):

    - sources send at exactly [x_i = U'^-1(Σ p_l)] (Eq. 3), capped at
      their path's line rate;
    - each link integrates a queue when overloaded and updates its price by
      [p <- \[p + a (y - C) + b q\]+] (Eq. 14).

    The gains [a] and [b] are notoriously workload-dependent (the paper
    sweeps them and picks the fastest stable setting); here they are
    expressed as dimensionless relative gains, internally scaled by the
    initial price magnitude (the mean marginal utility per hop at the
    equal-weight max-min allocation) and the link capacity, which
    corresponds to the per-experiment tuning the paper performs. *)

val make : Nf_num.Problem.t -> Scheme.t
(** Runs {!Nf_num.Price_law.dgd} with Table 2's gains and interval
    ({!Nf_num.Price_law.dgd_table2}), the price scale set from the
    problem. Each round emits per-link [PriceUpdate] trace events (time =
    round × interval) to {!Nf_util.Trace.default}.
    @raise Invalid_argument on multipath problems (the paper's DGD is a
    single-path algorithm). *)
