(* Steady-state allocation audit of the [@nf.hot] kernels.

   Each kernel is prebuilt once (topology, problem, queues, workspaces)
   and then driven through [Gcstats.bytes_per_iteration], which warms the
   kernel up past any lazy workspace growth and reports minor-heap bytes
   per steady-state iteration. A clean kernel measures exactly 0.0; the
   [budget] of 1 byte/iter absorbs only measurement noise, not real
   boxing (a single boxed float already costs 16 bytes on 64-bit).

   Build-profile caveat: dune's dev profile compiles with -opaque, which
   disables cross-unit inlining, so a float crossing a library boundary
   (Fheap's [~key] argument and [top_key] result, called from nf_sim /
   nf_engine / this audit; [Sim.schedule_after_cat]'s computed [~delay],
   called from nf_sim) is boxed no matter what the callee looks like.
   That is a property of the build profile, not of the kernels — release
   builds measure 0 — so [run] probes whether boundary floats box and
   grants each kernel a fixed [boundary_limit] of the boxes it owes when
   they do. The xWI step and max-min kernels keep their floats inside one
   compilation unit by construction and must measure clean under every
   profile.

   Run with the process-wide [Nf_num.Diag] config *cleared*: an attached
   diag deliberately allocates one sample record per observed step. *)

type result = { kernel : string; bytes_per_iter : float; limit : float }

let budget = 1.0

(* On -opaque builds, a kernel that passes [boxes] raw floats across a
   library boundary per iteration owes exactly [boxes] 16-byte boxes;
   8 bytes of measurement headroom stay strictly below one more box. *)
let boundary_limit boxes = (16.0 *. float_of_int boxes) +. 8.0

(* Does a float result box when returned across a library boundary? A
   1-element Fheap keyed once: [top_key] is [@inline] and allocation-free,
   so anything measured here is the call-boundary box of a dev (-opaque)
   build. *)
let boundary_boxing () =
  let h = Nf_util.Fheap.create ~capacity:4 () in
  Nf_util.Fheap.push h ~key:1.0 0;
  let out = [| 0. |] in
  let probe () = out.(0) <- Nf_util.Fheap.top_key h in
  Nf_util.Gcstats.bytes_per_iteration ~warmup:64 ~iters:1_000 probe > budget

let fheap_kernel () =
  let h = Nf_util.Fheap.create ~capacity:64 () in
  let out = [| 0. |] in
  let i = ref 0 in
  fun () ->
    incr i;
    Nf_util.Fheap.push h ~key:(float_of_int (!i mod 97)) !i;
    (* Stored, not [ignore]d: [ignore] takes ['a] and would box the float
       itself, charging the kernel for the harness's sin. *)
    out.(0) <- Nf_util.Fheap.top_key h;
    ignore (Nf_util.Fheap.top h : int);
    Nf_util.Fheap.drop h

let stfq_kernel () =
  let pool = Nf_sim.Packet.create_pool () in
  let q = Nf_sim.Queue_disc.stfq ~pool () in
  let packets =
    Array.init 16 (fun fl ->
        let p =
          Nf_sim.Packet.alloc_data pool ~flow:fl ~seq:fl ~size:1500
            ~path:[| 0 |] ~now:0.
        in
        p.Nf_sim.Packet.fl.Nf_sim.Packet.virtual_packet_len <-
          1500. /. float_of_int (1 + (fl mod 7));
        p)
  in
  let i = ref 0 in
  fun () ->
    incr i;
    let p = packets.(!i mod 16) in
    ignore (q.Nf_sim.Queue_disc.enqueue p : bool);
    ignore (q.Nf_sim.Queue_disc.dequeue_exn () : Nf_sim.Packet.t)

(* One event through the engine: schedule a preallocated handler, then
   dispatch it ([Sim.run] drains the one-event queue). *)
let sim_kernel () =
  let sim = Nf_engine.Sim.create () in
  let cat = Nf_engine.Sim.cat "audit" in
  let handler () = () in
  fun () ->
    Nf_engine.Sim.schedule_after_cat sim ~cat ~delay:1e-6 handler;
    Nf_engine.Sim.run sim

(* The calendar's other two scheduling paths: an event 1 ms ahead is past
   the ~15 us window, so it goes through the overflow heap; two events at
   the same time make the second one append behind the first in its
   bucket. *)
let sim_overflow_kernel () =
  let sim = Nf_engine.Sim.create () in
  let cat = Nf_engine.Sim.cat "audit" in
  let handler () = () in
  fun () ->
    Nf_engine.Sim.schedule_after_cat sim ~cat ~delay:1e-3 handler;
    Nf_engine.Sim.run sim

let sim_tie_kernel () =
  let sim = Nf_engine.Sim.create () in
  let cat = Nf_engine.Sim.cat "audit" in
  let handler () = () in
  fun () ->
    Nf_engine.Sim.schedule_after_cat sim ~cat ~delay:1e-6 handler;
    Nf_engine.Sim.schedule_after_cat sim ~cat ~delay:1e-6 handler;
    Nf_engine.Sim.run sim

(* NUMFabric's switch port (STFQ + the xWI engine) without the periodic
   price update, so a [Sim.run] drains after one hop instead of running
   the update chain forever. *)
let hop_protocol : Nf_sim.Protocol.t =
  (module struct
    let name = "audit-hop"

    let description = "STFQ + xWI engine, no periodic updates"

    let needs_utility = false

    let update_interval (_ : Nf_sim.Config.t) = None

    let make_link (cfg : Nf_sim.Config.t) ~pool ~capacity =
      {
        Nf_sim.Protocol.lh_qdisc =
          Nf_sim.Queue_disc.stfq ~pool
            ~limit_bytes:cfg.Nf_sim.Config.buffer_bytes ();
        lh_engine = Nf_sim.Price_engine.xwi ~capacity ();
      }

    (* NUMFabric's own Swift sender, for the round trip. *)
    let make_flow =
      let module P = (val Nf_sim.Protocols.get "numfabric") in
      P.make_flow
  end)

(* One packet hop through the network's real per-link path: a packet
   from the network's pool, STFQ enqueue and the xWI engine's
   [on_enqueue] ([forward]), dequeue, [on_dequeue] and the two schedules
   ([try_transmit]), then the dispatch of the link's [tx_done] and
   [arrive_next] handlers. Its flow has no receiver, so the end of the
   path delivers nothing and returns the packet to the pool. *)
let packet_hop_kernel () =
  let sb = Nf_topo.Builders.single_bottleneck ~n_senders:1 () in
  let net =
    Nf_sim.Network.create ~topology:sb.Nf_topo.Builders.sb_topo
      ~protocol:hop_protocol ()
  in
  let sim = Nf_sim.Network.sim net and pool = Nf_sim.Network.pool net in
  let path = [| sb.Nf_topo.Builders.bottleneck |] in
  fun () ->
    Nf_sim.Network.transmit net
      (Nf_sim.Packet.alloc_data pool ~flow:0 ~seq:0 ~size:1500 ~path ~now:0.);
    Nf_engine.Sim.run sim

(* A whole round trip of one flow: a data packet from the pool, its hops
   to the receiver ([Host.handle_data]: rate filter, an ACK from the
   pool), the ACK's hops back, the sender's ACK processing
   ([Host.handle_ack]: Swift's [on_ack] and the window check), and the
   release of both packets. The flow (NUMFabric's sender, persistent) is
   stopped right after its start and the set-up run drains its first
   burst and its timer, so an iteration sends nothing else. *)
let packet_round_trip_kernel () =
  let sb = Nf_topo.Builders.single_bottleneck ~n_senders:1 () in
  let net =
    Nf_sim.Network.create ~topology:sb.Nf_topo.Builders.sb_topo
      ~protocol:hop_protocol ()
  in
  Nf_sim.Network.add_flow net
    (Nf_sim.Network.flow ~utility:(Nf_num.Utility.proportional_fair ()) ~id:0
       ~src:sb.Nf_topo.Builders.senders.(0) ~dst:sb.Nf_topo.Builders.receiver
       ());
  Nf_sim.Network.stop_flow_at net ~id:0 0.;
  let sim = Nf_sim.Network.sim net and pool = Nf_sim.Network.pool net in
  Nf_engine.Sim.run sim;
  let path = Nf_sim.Network.flow_path net 0 in
  fun () ->
    Nf_sim.Network.transmit net
      (Nf_sim.Packet.alloc_data pool ~flow:0 ~seq:0 ~size:1500 ~path ~now:0.);
    Nf_engine.Sim.run sim

(* A k=4 fat-tree / ECMP / proportional-fair scenario of 64 flows: the
   same kind of instance as nfbench's solve_cold, at a fraction of its
   size. *)
let xwi_problem ~k ~n_flows =
  let ft = Nf_topo.Builders.fat_tree ~k () in
  let rng = Nf_util.Rng.create ~seed:7 in
  let pairs =
    Nf_workload.Traffic.random_pairs rng ~hosts:ft.Nf_topo.Builders.ft_servers
      ~n:n_flows
  in
  let router = Nf_topo.Routing.router ft.Nf_topo.Builders.ft_topo in
  let paths =
    Array.mapi
      (fun i { Nf_workload.Traffic.src; dst } ->
        Array.of_list
          (Nf_topo.Routing.ecmp_path_fast router ~src ~dst
             ~hash:(i * 2654435761)))
      pairs
  in
  let caps =
    Array.map
      (fun l -> l.Nf_topo.Topology.capacity)
      (Nf_topo.Topology.links ft.Nf_topo.Builders.ft_topo)
  in
  Nf_num.Problem.create ~caps
    ~groups:
      (Array.to_list
         (Array.map
            (Nf_num.Problem.single_path (Nf_num.Utility.proportional_fair ()))
            paths))

let xwi_kernel () =
  let problem = xwi_problem ~k:4 ~n_flows:64 in
  let state = Nf_num.Xwi_core.init problem in
  (* The audit measures the bare solver: drop any diag a process-wide
     [--diag] config auto-attached (a diag allocates a sample per step
     by design). *)
  Nf_num.Xwi_core.set_diag state None;
  let params = Nf_num.Xwi_core.default_params in
  fun () -> Nf_num.Xwi_core.step problem params state

(* [run_until_kkt]'s witness check: one flow's [Kkt.flow_residual] on a
   mid-run iterate, compared against a tolerance as the stopping test
   does. Cycles through the flows so every path length is exercised. The
   float result crosses from nf_num into this library, so a dev build
   boxes it (a boundary kernel); release inlines it and must measure 0. *)
let kkt_witness_kernel () =
  let problem = xwi_problem ~k:4 ~n_flows:64 in
  let state = Nf_num.Xwi_core.init problem in
  Nf_num.Xwi_core.set_diag state None;
  for _ = 1 to 20 do
    Nf_num.Xwi_core.step problem Nf_num.Xwi_core.default_params state
  done;
  let rates = state.Nf_num.Xwi_core.rates
  and prices = state.Nf_num.Xwi_core.prices in
  let n_flows = Nf_num.Problem.n_flows problem in
  let used_threshold = Nf_num.Kkt.default_used_threshold in
  let cleared = ref 0 and i = ref 0 in
  fun () ->
    i := (!i + 1) mod n_flows;
    if Nf_num.Kkt.flow_residual ~used_threshold problem ~rates ~prices !i <= 1e-6
    then incr cleared

let maxmin_kernel () =
  let n_links = 32 in
  let n_flows = 64 in
  let caps = Array.make n_links 1e10 in
  let paths =
    Array.init n_flows (fun i ->
        Array.init (1 + (i mod 4)) (fun j -> (i + (j * 7)) mod n_links))
  in
  let inc =
    Nf_num.Incidence.create ~caps ~paths
      ~group_of_flow:(Array.init n_flows Fun.id)
      ~n_groups:n_flows
  in
  let weights =
    Nf_num.Incidence.vec_of_array
      (Array.init n_flows (fun i -> 0.5 +. float_of_int (i mod 7)))
  in
  let rates = Nf_num.Incidence.vec n_flows in
  let ws = Nf_num.Maxmin.sparse_workspace inc in
  fun () -> Nf_num.Maxmin.solve_sparse ws inc ~weights ~rates

(* (kernel, thunk, raw floats it passes across a library boundary per
   iteration: each one a box on -opaque builds). The engine keeps event
   times inside its compilation unit on the calendar wheel, and the
   audit's constant delays are preallocated, so the engine kernels owe
   nothing but [sim_overflow]'s Fheap key. The hop's four are STFQ's
   Fheap key and [top_key] and the two computed
   [Sim.schedule_after_cat] delays. The round trip's thirty are four
   such hops plus the end hosts' clock reads, rate filter and Swift's
   utility evaluations, each a call into another library (counted on a
   dev build: 480.5 B per iteration). *)
let kernels () =
  [
    ("fheap_push_pop", fheap_kernel (), 2);
    ("stfq_enqueue_dequeue", stfq_kernel (), 2);
    ("sim_schedule_dispatch", sim_kernel (), 0);
    ("sim_overflow", sim_overflow_kernel (), 1);
    ("sim_same_time_tie", sim_tie_kernel (), 0);
    ("packet_hop", packet_hop_kernel (), 4);
    ("packet_round_trip", packet_round_trip_kernel (), 30);
    ("xwi_step", xwi_kernel (), 0);
    ("kkt_witness_check", kkt_witness_kernel (), 1);
    ("maxmin_solve_sparse", maxmin_kernel (), 0);
  ]

let run ?iters () =
  let relaxed = boundary_boxing () in
  List.map
    (fun (kernel, f, boxes) ->
      {
        kernel;
        bytes_per_iter = Nf_util.Gcstats.bytes_per_iteration ?iters f;
        limit = (if relaxed && boxes > 0 then boundary_limit boxes else budget);
      })
    (kernels ())

let ok results =
  List.for_all (fun r -> r.bytes_per_iter <= r.limit) results
