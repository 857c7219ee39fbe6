(* Large-fabric convergence study: the sparse CSR core on a 1024-server
   leaf-spine and a k=16 fat tree with 100k+ ECMP-placed flows, checked
   by KKT residual after a fixed iteration budget. Deterministic report;
   solver throughput is measured by nfbench's solve_cold, not here. *)

type row = {
  fabric : string;
  hosts : int;
  links : int;
  flows : int;
  iterations : int;
  kkt_initial : float;
  kkt_final : float;
  feasible : bool;
}

type t = row list

val run :
  ?seed:int ->
  ?flows_leaf_spine:int ->
  ?flows_fat_tree:int ->
  ?iterations:int ->
  unit ->
  t

val report : t -> Report.t
