(** Traffic pattern generators: who talks to whom, when, and how much.

    These produce plain data (host pairs, arrival times, sizes) that the
    experiment drivers turn into packet-level flows or fluid problems. All
    randomness flows through explicit {!Nf_util.Rng.t} generators. *)

type pair = { src : int; dst : int }

val random_pairs : Nf_util.Rng.t -> hosts:int array -> n:int -> pair array
(** [n] source/destination pairs drawn uniformly with [src <> dst]. *)

val half_permutation : Nf_util.Rng.t -> hosts:int array -> pair array
(** Servers in the first half each send to a distinct server of the second
    half (the paper's §6.3 resource-pooling setup: 1–64 send to 65–128).
    @raise Invalid_argument if the host count is odd or < 2. *)

type arrival = { at : float; size : float; pair : pair }

val poisson_arrivals :
  Nf_util.Rng.t ->
  pairs:pair array ->
  size_dist:Size_dist.t ->
  rate_per_sec:float ->
  duration:float ->
  arrival list
(** Poisson process of total intensity [rate_per_sec]; each arrival picks a
    uniform pair and an independent size. Sorted by time. *)

val load_to_rate :
  load:float -> n_hosts:int -> host_capacity:float -> mean_size:float -> float
(** The arrival rate (flows/second) that drives an [n_hosts]-server fabric
    at fraction [load] of its aggregate host capacity:
    [load * n_hosts * host_capacity / (8 * mean_size)]. *)
