(** Fluid SRPT allocator — the idealized model of pFabric (§6.3 baseline).

    pFabric's switches serve, at every link, the packet of the flow with
    the smallest remaining size; with its aggressive rate control the
    resulting bandwidth allocation is, to first order, the greedy
    Shortest-Remaining-Processing-Time allocation: process flows in
    increasing order of remaining size, giving each the full residual
    capacity of its path. This module computes exactly that allocation
    each round, driven by the remaining sizes that the {!Dynamic} driver
    reports via [observe_remaining]. *)

val allocate :
  caps:float array -> paths:int array array -> remaining:float array -> float array
(** Greedy SRPT: flows sorted by remaining size (ties by lower index);
    each flow in turn gets the minimum residual capacity on its path. *)

val make : Nf_num.Problem.t -> Scheme.t
(** A {!Scheme.t} whose rates follow {!allocate} (group remaining sizes;
    multipath groups are not supported), recomputed every 16 µs.
    Until the first [observe_remaining] call all remaining sizes are
    treated as equal. *)
