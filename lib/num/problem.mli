(** A network utility maximization problem instance:

    maximize [Σ_g U_g(y_g)] subject to [R x <= c], where each {e group} [g]
    owns one or more {e flows} (sub-flows), [y_g] is the sum of the rates
    of the group's flows, and [R] is the flow-on-link routing matrix.

    Single-path flows are singleton groups; multipath (resource-pooling)
    flows are groups with one member per sub-flow path (row 4 of Table 1).
    Flows and groups are indexed densely so that algorithms can work with
    flat float arrays ([rates.(flow)], [prices.(link)]).

    {2 Delta interface}

    A problem is no longer frozen at {!create}: groups arrive with
    {!add_group} and depart with {!remove_group}, which is how the
    always-on allocation service ([nf_run serve]) tracks per-flow churn.
    Mutations are cheap — they tombstone or append a ledger entry — and
    the compiled snapshot (the utilities and the sparse {!Incidence.t})
    is patched in place {e lazily} at the next read, so a batch of N
    events followed by one solve costs one patch, not N. A snapshot read
    before a commit is valid only until that commit.

    Two id spaces coexist:
    - {e gids} (returned by {!add_group}) are stable handles that survive
      compaction; use them to name groups across events.
    - {e dense ids} (groups [0 .. n_groups-1], flows [0 .. n_flows-1])
      are the solver-facing indices. They are only stable between
      topology mutations: any {!add_group}/{!remove_group} may renumber
      them at the next commit. {!generation} changes whenever dense ids
      may have moved; map gid → dense with {!group_index}.

    Solver state sized for a problem snapshot must be rebuilt (e.g.
    [Xwi_core.resize]) after {!generation} changes. *)

type group_spec = {
  utility : Utility.t;
  paths : int array list;  (** one non-empty link-id path per sub-flow *)
}

val single_path : Utility.t -> int array -> group_spec
(** A one-sub-flow group. *)

type t

val create : caps:float array -> groups:group_spec list -> t
(** @raise Invalid_argument on empty paths, out-of-range link ids,
    capacities that are not positive and finite, or an empty group list. Initial groups get
    gids [0 .. n-1] in list order. *)

val create_groups : caps:float array -> groups:group_spec array -> t
(** Array fast path of {!create}: an empty problem, every group's
    {!add_group} and one {!commit}, so batch construction and the delta
    layer share one build route. Unlike {!create}, an empty [groups]
    array is allowed: the service starts idle and populates the problem
    via {!add_group}. A new problem is at generation 1. *)

(** {2 Delta operations} *)

val add_group : t -> group_spec -> int
(** Append a group; returns its stable gid. The snapshot takes it at
    the next read (lazy commit). Paths are validated
    (and copied) immediately.
    @raise Invalid_argument on an invalid spec. *)

val remove_group : t -> int -> unit
(** Tombstone the group with the given gid; it is dropped (and dense ids
    compacted) at the next commit.
    @raise Invalid_argument on an unknown or already-removed gid. *)

val group_index : t -> int -> int option
(** Dense group id of a gid (commits first). [None] after removal. *)

val commit : t -> unit
(** Apply the pending ledger changes to the snapshot now. No-op when
    nothing changed. Reads commit implicitly; call this to control when
    the work happens. The snapshot's arrays are patched in place, in two
    linear passes: one compacts the removed groups' flows out of every
    array, one appends the new groups. A one-group delta costs
    O(nnz + links) moves and allocates only the new {!Incidence.t}
    record, unless an array outgrows its headroom. The previous
    snapshot's {!incidence} and {!utilities} are invalid from here on.
    The compaction rewrites each surviving group's dense id in place and
    touches the gid table only for the dropped gids. *)

val dirty : t -> bool
(** Uncommitted ledger changes pending. *)

val generation : t -> int
(** Topology generation: bumped by every commit that changed the
    snapshot. Solver state caching the incidence or dense ids is stale
    once this moves. *)

(** {2 Capacities} *)

val caps : t -> float array
(** The live capacity array, shared with every compiled {!incidence}
    ([Incidence.caps] is this array). Capacity changes are not topology
    changes: a write — through {!set_cap}, or directly into the array
    (Figure 10 changes link speeds mid-run) — is seen by the next solver
    step without a {!commit} or a resize. Direct writes must keep every
    capacity positive and finite. *)

val set_cap : t -> int -> float -> unit
(** [set_cap t l c] updates link [l]'s capacity.
    @raise Invalid_argument on a bad link id or a capacity that is not
    positive and finite. *)

(** {2 Compiled-snapshot accessors}

    All of these commit pending deltas first, and raise
    [Invalid_argument] on a flow or group id past the snapshot's
    counts. *)

val n_links : t -> int

val n_flows : t -> int
(** Total sub-flow count. *)

val n_groups : t -> int

val flow_path : t -> int -> int array

val flow_group : t -> int -> int

val path_len : t -> int -> int
(** [|L(i)|] of the paper: number of links on flow [i]'s path. *)

val group_utility : t -> int -> Utility.t

val utilities : t -> Utility.t array
(** Every group's utility, indexed by dense group id
    ([(utilities t).(g)] is [group_utility t g]). Shared, not copied:
    callers must treat it as read-only. Its length may exceed
    {!n_groups} (headroom): read only the first [n_groups]. A commit
    rewrites it in place or replaces it. *)

val incidence : t -> Incidence.t
(** The sparse CSR/CSC index structure of the current snapshot. Shared,
    read-only for callers, and valid only until the next commit, which
    patches its arrays in place and returns a new record (check
    {!generation} before caching it across events). Its arrays may be
    longer than its counts. Its capacities are {!caps} itself, so a
    cached incidence sees capacity changes. *)

val group_rate : t -> rates:float array -> int -> float
(** [y_g = Σ_{i ∈ g} rates.(i)] ({!Incidence.group_rate}). *)

val group_rates_into : t -> rates:float array -> float array -> unit
(** Every group's [y_g], written into a caller-owned array of length
    [n_groups] (no allocation; {!Incidence.group_rates_into}). *)

val link_loads_into : t -> rates:float array -> float array -> unit
(** Every link's load [Σ_{i ∋ l} rates.(i)]: clears and fills a
    caller-owned array of length [n_links] (no allocation;
    {!Incidence.link_loads_into}). *)

val path_price : t -> prices:float array -> int -> float
(** [Σ_{l ∈ L(i)} prices.(l)] for flow [i] ({!Incidence.path_price}). *)

val is_single_path : t -> bool
(** All groups are singletons. *)

val feasible : t -> rates:float array -> bool
(** No link loaded beyond [cap * (1 + 1e-6)] and all rates
    non-negative. *)
