(** Sparse flow×link incidence core.

    The flat data layout the hot NUM kernels iterate over: CSR
    (flow → links on its path), CSC (link → flows crossing it), and the
    group → flows map, all as dense [int array] index arrays, plus the
    per-link capacities. Built once per {!Problem.t} snapshot; see
    DESIGN.md "Sparse NUM core" for layout and ownership rules. *)

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
      (** link capacities: the array given to {!create}, shared, not
          copied — {!Problem} passes its live capacity array, so a
          capacity change is seen by the next kernel call *)
}

val create :
  caps:float array ->
  paths:int array array ->
  group_of_flow:int array ->
  n_groups:int ->
  t
(** Build the index arrays; [caps] is kept as {!field-caps} without a
    copy. Flows must be numbered group-major (all of group 0's flows
    first, then group 1's, ...) as {!Problem.create} guarantees.
    @raise Invalid_argument on out-of-range ids. *)

val path_len : t -> int -> int

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
