(* Tenant-level aggregates (§8: "we are extending NUMFabric to support
   more general definitions of flows such as ... VM-level and tenant-level
   aggregates").

   The group machinery that implements multipath resource pooling already
   supports this: a "flow" in the NUM problem can be any set of sub-flows
   with a utility over their aggregate rate. Here two tenants share a
   fabric; tenant A runs 6 connections, tenant B runs 2. Per-connection
   fairness would give A 3x the bandwidth of B; tenant-level proportional
   fairness splits the contended capacity evenly between tenants no matter
   how many connections each opens.

   Run with:  dune exec examples/tenant_fairness.exe *)

module Problem = Nf_num.Problem
module Topology = Nf_topo.Topology
module Builders = Nf_topo.Builders
module Routing = Nf_topo.Routing

let connections topo srcs dst =
  let router = Routing.router topo in
  List.map
    (fun src -> Array.of_list (Routing.ecmp_path_fast router ~src ~dst ~hash:0))
    srcs

let () =
  let sb = Builders.single_bottleneck ~n_senders:8 () in
  let topo = sb.Builders.sb_topo in
  let s = sb.Builders.senders in
  let dst = sb.Builders.receiver in
  let tenant_a = connections topo [ s.(0); s.(1); s.(2); s.(3); s.(4); s.(5) ] dst in
  let tenant_b = connections topo [ s.(6); s.(7) ] dst in
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topo) in
  let solve groups =
    (Nf_num.Oracle.solve (Problem.create ~caps ~groups)).Nf_num.Oracle.group_rates
  in
  (* Per-connection fairness: every connection is its own group. *)
  let per_conn =
    solve
      (List.map
         (Problem.single_path (Nf_num.Utility.proportional_fair ()))
         (tenant_a @ tenant_b))
  in
  let sum lo hi = Array.fold_left ( +. ) 0. (Array.sub per_conn lo (hi - lo)) in
  (* Tenant-level fairness: one group per tenant, utility of the aggregate. *)
  let per_tenant =
    solve
      [
        { Problem.utility = Nf_num.Utility.proportional_fair (); paths = tenant_a };
        { Problem.utility = Nf_num.Utility.proportional_fair (); paths = tenant_b };
      ]
  in
  Format.printf
    "@[<v>Two tenants on a 10 Gbps bottleneck (A: 6 connections, B: 2):@,@,\
     per-connection fairness:  A %.2f Gbps, B %.2f Gbps (A wins by opening \
     more connections)@,\
     tenant-level fairness:    A %.2f Gbps, B %.2f Gbps (connection count \
     no longer matters)@,@,\
     The same xWI machinery that pools multipath sub-flows enforces \
     tenant aggregates: only the grouping changed.@]@."
    (sum 0 6 /. 1e9) (sum 6 8 /. 1e9) (per_tenant.(0) /. 1e9)
    (per_tenant.(1) /. 1e9)
