(** Sparse flow×link incidence core.

    The flat data layout the hot NUM kernels iterate over: CSR
    (flow → links on its path), CSC (link → flows crossing it), and the
    group → flows map, all as dense [int array] index arrays, plus the
    per-link capacities. A {!Problem.t} patches one {!store} of these
    arrays in place at every commit; see DESIGN.md "Sparse NUM core" for
    layout and ownership rules. *)

type vec = float array
(** Per-flow / per-link / per-group working vector of the sparse
    kernels. A plain (unboxed) [float array]: the solver state's own
    arrays are passed to the kernels directly. *)

val vec : int -> vec
(** Freshly allocated, zero-filled. *)

val vec_of_array : float array -> vec
(** A copy. *)

type t = private {
  n_links : int;
  n_flows : int;
  n_groups : int;
  nnz : int;  (** total path length over all flows *)
  row_ptr : int array;  (** CSR: flow [i]'s links are [row_cols.(row_ptr.(i) .. row_ptr.(i+1)-1)] *)
  row_cols : int array;  (** link ids in path order (repeats preserved) *)
  col_ptr : int array;  (** CSC: link [l]'s flows are [col_rows.(col_ptr.(l) .. col_ptr.(l+1)-1)] *)
  col_rows : int array;  (** flow ids, ascending, de-duplicated per link *)
  grp_ptr : int array;  (** group [g]'s flows are [grp_flows.(grp_ptr.(g) .. grp_ptr.(g+1)-1)] *)
  grp_flows : int array;  (** flow ids in member order *)
  group_of_flow : int array;
  singleton : bool;  (** every group has exactly one flow *)
  caps : float array;
      (** link capacities: the array given to {!create} or {!store},
          shared, not copied — {!Problem} passes its live capacity
          array, so a capacity change is seen by the next kernel call *)
}
(** One snapshot. The index arrays may be longer than the counts need
    (a {!store}'s headroom): every sweep is bounded by [n_flows],
    [n_groups], [nnz] and [n_links], never by [Array.length]. A snapshot
    sealed from a {!store} is valid only until the store is next
    patched, which rewrites the arrays in place. *)

val create :
  caps:float array ->
  paths:int array array ->
  group_of_flow:int array ->
  n_groups:int ->
  t
(** The snapshot of the given flows: {!append_group} of each group's
    run of flows onto an empty {!store} sized to fit, then {!seal}.
    Flows must be numbered group-major (all of group 0's flows first,
    then group 1's, ...), as {!Problem} guarantees; [caps] is kept as
    {!field-caps} without a copy.
    @raise Invalid_argument on out-of-range link or group ids or flows
    that are not group-major. *)

(** {2 Patching in place}

    A {!store} holds the index arrays of a sequence of snapshots, sized
    with headroom. A delta is one {!compact} of the groups marked with
    {!drop_group}, then the new groups' {!append_group}s (after one
    {!reserve} for all of them), then one {!seal}: O(nnz + links) moves,
    and no allocation but the new record's unless an array must grow. *)

type store

val store : caps:float array -> store
(** An empty store (no flows, no groups) over [caps], shared. *)

val drop_group : store -> int -> unit
(** Mark group [g] of the last sealed snapshot to leave at the next
    {!compact}.
    @raise Invalid_argument on a bad group id, or after an
    {!append_group} that is not sealed yet. *)

val compact : store -> unit
(** Remove the marked groups' flows from every array. Survivors keep
    their order and take dense group and flow ids; each CSC column is
    renumbered and stays ascending. No-op when nothing is marked. *)

val reserve : store -> flows:int -> nnz:int -> groups:int -> unit
(** Make room for [flows] more flows, with [nnz] more path entries, in
    [groups] more groups: an array that is short grows once, to the need
    or to twice its length, whichever is more, instead of step by step
    through the appends. An empty store is filled to fit. *)

val append_group : store -> int array array -> unit
(** Append a group whose flows have the given paths: their CSR rows go
    at the tail, their CSC entries at the next {!seal}. The paths are
    copied.
    @raise Invalid_argument on an out-of-range link id (the store is
    left unchanged). *)

val seal : store -> t
(** Merge the flows appended since the last seal into the CSC, each
    flow once per link even if its path repeats the link, and return the
    current snapshot: a fresh record over the store's arrays. *)

val link_degree : t -> int -> int
(** Number of distinct flows crossing the link. *)

val path_price : t -> prices:vec -> int -> float
(** [Σ_{l ∈ L(i)} prices.(l)] for flow [i], in path order (a link the
    path repeats counts once per traversal; bit-identical to the legacy
    per-flow fold). *)

val path_prices_into : t -> prices:vec -> out:vec -> unit
(** {!path_price} for every flow. *)

val link_loads_into : t -> rates:vec -> out:vec -> unit
(** [out.(l) = Σ_{i ∋ l} rates.(i)], accumulated flow-major in path order,
    once per traversal (bit-identical to the legacy sweep). Clears [out]
    first. *)

val group_rate : t -> rates:vec -> int -> float
(** [Σ_{i ∈ g} rates.(i)] for group [g], in member order. *)

val group_rates_into : t -> rates:vec -> out:vec -> unit
(** {!group_rate} for every group. *)
