(** Network topologies: directed graphs of hosts and switches connected by
    capacitated links.

    Links are unidirectional (a full-duplex cable is two links); capacities
    are in bits per second and propagation delays in seconds, following the
    conventions of {!Nf_util.Units}. Nodes and links are identified by
    dense integer ids so that simulators can use flat arrays indexed by
    them. *)

type node_kind = Host | Switch

type node = { node_id : int; kind : node_kind; label : string }

type link = {
  link_id : int;
  src : int;  (** node id *)
  dst : int;  (** node id *)
  capacity : float;  (** bits per second *)
  delay : float;  (** propagation delay, seconds *)
}

type t

(** Incremental construction. *)
module Builder : sig
  type topology := t

  type t

  val create : unit -> t

  val add_host : t -> ?label:string -> unit -> int
  (** Returns the new node id. *)

  val add_switch : t -> ?label:string -> unit -> int

  val add_link : t -> src:int -> dst:int -> capacity:float -> delay:float -> int
  (** One unidirectional link; returns the new link id.
      @raise Invalid_argument on unknown nodes or non-positive capacity. *)

  val add_duplex : t -> int -> int -> capacity:float -> delay:float -> int * int
  (** Two links (a -> b, b -> a); returns both link ids. *)

  val finish : t -> topology
end

val n_nodes : t -> int

val n_links : t -> int

val node : t -> int -> node

val link : t -> int -> link

val links : t -> link array

val out_links : t -> int -> int list
(** Link ids leaving the given node. *)

val find_link : t -> src:int -> dst:int -> int option
(** The first link from [src] to [dst], if any. *)

val path_is_valid : t -> src:int -> dst:int -> int list -> bool
(** Whether the link-id list forms a contiguous path from [src] to [dst]. *)

val path_min_capacity : t -> int list -> float
(** Minimum capacity along a (non-empty) path.
    @raise Invalid_argument on an empty path. *)
