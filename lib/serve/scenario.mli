(** Shared churn scenario: the standing leaf–spine fabric plus a seeded
    flow arrival/departure process.

    One definition serves four callers — the [nf_run serve] daemon (to
    size its problem), the [serve-drive] test client and the CI smoke
    job (to generate the event trace), nfbench's [serve_churn] workload,
    and the [churn] experiment — so
    they all churn the {e same} workload and their numbers compare. *)

type t = {
  caps : float array;  (** per-link capacities of the fabric *)
  path_pool : int array array;
      (** candidate single-flow paths (ECMP-routed random server pairs);
          an arriving flow picks one uniformly *)
}

val leaf_spine :
  ?n_leaves:int ->
  ?n_spines:int ->
  ?servers_per_leaf:int ->
  ?pool:int ->
  seed:int ->
  unit ->
  t
(** Defaults: the paper's 8-leaf/4-spine/128-server fabric with a pool of
    1000 candidate paths (the semi-dynamic workload's shape, §6.2). *)

type event =
  | Arrive of int  (** path-pool index for the new flow *)
  | Depart of int  (** index into the {e current} live-gid list *)

val next_event : Nf_util.Rng.t -> t -> live:int -> target:int -> event
(** Draw the next churn event: arrivals dominate below [target] live
    flows, departures above, so the population hovers around [target].
    [live = 0] always arrives. Fully determined by the Rng stream. *)
