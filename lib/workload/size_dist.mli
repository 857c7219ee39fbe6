(** Flow-size distributions.

    The paper's dynamic workloads (§6.1) come from two measured datacenter
    traces, used via their flow-size CDFs:

    - {!websearch}: the web-search cluster workload (DCTCP/pFabric
      papers): ~50% of flows below 100 KB, but 95% of bytes in the ~30%
      of flows larger than 1 MB;
    - {!enterprise}: the large-enterprise workload (CONGA paper): ~95% of
      flows below 10 KB and ~70% of flows only 1–2 packets, with a heavy
      byte tail.

    The exact traces are not public; the CDFs encoded here are standard
    approximations reproducing the summary statistics the paper quotes.
    Sampling is inverse-CDF with linear interpolation between breakpoints,
    driven by an explicit {!Nf_util.Rng.t}. *)

type t

val of_cdf : (float * float) list -> t
(** [(size_bytes, P(S <= size))] breakpoints: sizes strictly increasing and
    positive, probabilities non-decreasing, first > 0 allowed, last must
    be 1.
    @raise Invalid_argument if malformed. *)

val websearch : t

val enterprise : t

val sample : t -> Nf_util.Rng.t -> float
(** A flow size in bytes (>= 1). *)

val mean : t -> float
(** Exact mean of the interpolated distribution. *)

val name : t -> string
