(** Deterministic pseudo-random numbers (xoshiro256++ seeded via
    splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that experiments are reproducible from a single integer
    seed and independent components can use {!split} streams. *)

type t

val create : seed:int -> t

val split : t -> t
(** A new generator whose stream is independent of (and deterministically
    derived from) the current state of [t]. Advances [t]. *)

val copy : t -> t

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val uniform : t -> lo:float -> hi:float -> float

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (inter-arrival times of a
    Poisson process). *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)
