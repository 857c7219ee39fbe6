(** Fluid DGD: the Dual Gradient Descent baseline (§3, Low & Lapsley), in
    the enhanced form the paper actually simulates (§6, Eq. 14):

    - sources send at exactly [x_i = U'^-1(Σ p_l)] (Eq. 3), capped at
      their path's line rate;
    - each link integrates a queue when overloaded and updates its price by
      [p <- \[p + a (y - C) + b q\]+] (Eq. 14).

    The gains [a] and [b] are notoriously workload-dependent (the paper
    sweeps them and picks the fastest stable setting); here they are
    expressed as dimensionless relative gains, internally scaled by the
    initial price magnitude and the link capacity, which corresponds to
    the per-experiment tuning the paper performs. *)

type params = {
  gain_util : float;
    (** relative gain of the rate-capacity mismatch term ([a]); default 0.3 *)
  gain_queue : float;
    (** relative gain of the queue term ([b]); default 0.15 *)
}

val default_params : params

val default_interval : float
(** 16 µs (Table 2: DGD priceUpdateInterval). *)

val make :
  ?params:params ->
  ?interval:float ->
  ?trace:Nf_util.Trace.t ->
  Nf_num.Problem.t ->
  Scheme.t
(** Each round emits per-link [PriceUpdate] trace events (time = round ×
    interval) to [trace] (default: the process {!Nf_util.Trace.default}).
    @raise Invalid_argument on multipath problems (the paper's DGD is a
    single-path algorithm). *)
