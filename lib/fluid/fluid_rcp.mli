(** Fluid RCP*: the α-fair generalization of RCP that the paper uses as a
    baseline (§6, Eqs. 15–16).

    Every link advertises a fair rate [R_l], multiplicatively updated from
    its spare capacity and queue:
    [R <- R (1 + (T/d)(a (C - y) - b q/d) / C)];
    each source sends at [x_i = (Σ_l R_l^-α)^(-1/α)], which reduces to
    [min_l R_l] (standard max-min RCP) as [α -> ∞].

    [alpha] is a property of the scheme instance (it must match the α-fair
    utilities of the problems it is run against; the scheme itself never
    reads the utility functions — RCP* has no notion of generic utilities,
    which is exactly the flexibility gap the paper exploits). *)

val make : alpha:float -> Nf_num.Problem.t -> Scheme.t
(** Runs {!Nf_num.Price_law.rcp} with Table 2's settings
    ({!Nf_num.Price_law.rcp_table2}) and the fluid bounds
    {!Nf_num.Price_law.rcp_fluid}. Each round emits per-link
    [PriceUpdate] trace events (the advertised fair rates; time = round ×
    interval) to {!Nf_util.Trace.default}.
    @raise Invalid_argument on multipath problems. *)
