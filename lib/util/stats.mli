(** Descriptive statistics over float samples: percentiles, CDFs, box-plot
    summaries and Jain's fairness index.

    These back every "CDF of ..." and "box shows the 25th and 75th
    percentiles" figure of the paper. *)

val mean : float array -> float
(** @raise Invalid_argument on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation between
    order statistics. Does not mutate [xs].
    @raise Invalid_argument on an empty array. *)

val median : float array -> float

type boxplot = {
  p25 : float;
  p50 : float;
  p75 : float;
  whisker_lo : float;  (** lowest sample >= p25 - 1.5*IQR *)
  whisker_hi : float;  (** highest sample <= p75 + 1.5*IQR *)
}

val boxplot : float array -> boxplot
(** The box-and-whisker summary used by Figure 5 of the paper.
    @raise Invalid_argument on an empty array. *)

val jain_index : float array -> float
(** Jain's fairness index [(Σx)^2 / (n Σx^2)]: 1 for a perfectly even
    allocation, 1/n when one member takes everything.
    @raise Invalid_argument on an empty array. *)
