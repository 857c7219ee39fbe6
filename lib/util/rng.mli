(** Deterministic pseudo-random numbers (xoshiro256++ seeded via
    splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that experiments are reproducible from a single integer
    seed. *)

type t

val create : seed:int -> t

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
