(** The NUMFabric transport (§5): Swift weighted max-min rate control at
    hosts, STFQ + xWI at switches. *)

val numfabric : Protocol.t
(** Needs a per-flow utility ({!Protocol.needs_utility}). *)

val numfabric_srpt : Protocol.t
(** Remaining-size (SRPT-approximating, §2) weights with
    [config.swift.srpt_eps]; every flow must have a finite size. *)
