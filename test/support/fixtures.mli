(** Topologies the tests build that no experiment uses. *)

type parking_lot = {
  pl_topo : Nf_topo.Topology.t;
  pl_hosts : int array;  (** n_links + 1 hosts; host i attaches switch i *)
  pl_links : int array;  (** the chain links (switch i -> switch i+1) *)
}

val parking_lot : n_links:int -> unit -> parking_lot
(** A chain of [n_links + 1] switches joined by 10 Gbps links, each with
    a host on a 40 Gbps access link, every hop 2 µs. The classic NUM
    test: one long flow crossing every chain link competing with
    [n_links] one-hop flows. *)
