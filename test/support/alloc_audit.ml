(* Steady-state allocation audit of the [@nf.hot] kernels.

   Each kernel is prebuilt once (topology, problem, queues, workspaces)
   and then driven through [bytes_per_iteration], which warms the
   kernel up past any lazy workspace growth and reports minor-heap bytes
   per steady-state iteration. A clean kernel measures exactly 0.0; the
   [budget] of 1 byte/iter absorbs only measurement noise, not real
   boxing (a single boxed float already costs 16 bytes on 64-bit). A
   kernel that owes bytes by design (a warm restart's new state) must
   measure them to less than one word below, so an owed count that goes
   stale upward by a field fails as one that goes stale downward does.

   Run with the process-wide [Nf_num.Diag] config *cleared*: an attached
   diag deliberately allocates one sample record per observed step. *)

let bytes_per_iteration ?(warmup = 256) ?(iters = 10_000) f =
  if iters <= 0 then invalid_arg "Alloc_audit.bytes_per_iteration: iters must be positive";
  for _ = 1 to warmup do
    f ()
  done;
  (* [Gc.allocated_bytes] is only advanced at minor collections on this
     runtime (the live young-area delta is not included), so each read is
     preceded by a [Gc.minor] flush — otherwise rates below one minor
     heap per measurement window are quantized away. Two adjacent
     flush+reads measure the probe's own fixed allocation (the minor
     collection's bookkeeping plus the boxed float the read returns),
     subtracted below. *)
  let flush_read () =
    Gc.minor ();
    Gc.allocated_bytes ()
  in
  let b0 = flush_read () in
  let b1 = flush_read () in
  let overhead = b1 -. b0 in
  let before = flush_read () in
  for _ = 1 to iters do
    f ()
  done;
  let after = flush_read () in
  (after -. before -. overhead) /. float_of_int iters

type result = { kernel : string; bytes_per_iter : float; owed : float }

let budget = 1.0

let word = 8.0

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
        lh_engine = Nf_sim.Price_engine.xwi ~capacity;
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

(* The paced-sender path DGD and RCP* run: a persistent flow paced at a
   fixed rate through the hop protocol's ports. An iteration runs the
   simulation for one pacing gap: one tick of the flow's pacing chain (a
   packet from the pool, onto the wire), the hops and ACKs in flight
   meanwhile, and the flow's RTO timer every [rto] (no progress is ever
   lost, so it only re-arms). *)
let paced_protocol : Nf_sim.Protocol.t =
  (module struct
    include (val hop_protocol)

    let name = "audit-paced"

    let description = "hop ports, a fixed-rate paced sender"

    let make_flow (_ : Nf_sim.Protocol.flow_env) ~utility:_ =
      {
        Nf_sim.Protocol.fh_discipline =
          Nf_sim.Protocol.Paced
            { rate = Nf_sim.Protocol.cell 5e9; cap = infinity };
        fh_on_send = ignore;
        fh_on_ack = ignore;
        fh_rto = 20e-6;
      }
  end)

let paced_send_kernel () =
  let sb = Nf_topo.Builders.single_bottleneck ~n_senders:1 () in
  let net =
    Nf_sim.Network.create ~topology:sb.Nf_topo.Builders.sb_topo
      ~protocol:paced_protocol ()
  in
  Nf_sim.Network.add_flow net
    (Nf_sim.Network.flow ~id:0 ~src:sb.Nf_topo.Builders.senders.(0)
       ~dst:sb.Nf_topo.Builders.receiver ());
  let sim = Nf_sim.Network.sim net in
  let cat = Nf_engine.Sim.cat "audit" in
  let gap = float_of_int (8 * Nf_sim.Packet.data_size) /. 5e9 in
  let stop () = Nf_engine.Sim.stop sim in
  fun () ->
    Nf_engine.Sim.schedule_after_cat sim ~cat ~delay:gap stop;
    Nf_engine.Sim.run sim

(* The switches' periodic price updates: one [update] of each of the
   xWI, DGD and RCP* engines the transports use, on a 10 Gb/s port whose
   counters the iteration refills first (a few packets' bytes, through
   [on_dequeue]; an xWI residual, through [on_enqueue]), so every
   update takes its busy-link branch. *)
let price_update_kernel () =
  let module Pe = Nf_sim.Price_engine in
  let pool = Nf_sim.Packet.create_pool () in
  let p =
    Nf_sim.Packet.alloc_data pool ~flow:0 ~seq:0 ~size:1500 ~path:[| 0 |]
      ~now:0.
  in
  p.Nf_sim.Packet.fl.Nf_sim.Packet.normalized_residual <- 1e-9;
  let capacity = 10e9 and queue_bytes () = 3000 in
  let engines =
    [|
      Pe.xwi ~capacity;
      Pe.dgd
        { Nf_num.Price_law.dgd_table2 with Nf_num.Price_law.dgd_price_scale = 1e-9 }
        ~capacity ~queue_bytes;
      Pe.rcp Nf_num.Price_law.rcp_table2 ~capacity ~queue_bytes ~initial_fair_rate:1e9;
    |]
  in
  fun () ->
    for k = 0 to Array.length engines - 1 do
      let e = engines.(k) in
      e.Pe.on_enqueue p;
      e.Pe.on_dequeue p;
      e.Pe.update ()
    done

(* [n_flows] random server pairs on a k-ary fat tree, each on its ECMP
   path: the links' capacities and the paths. The pairs are drawn one
   at a time from one seed, so a longer draw extends a shorter one. *)
let fat_tree_paths ~k ~n_flows =
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
  (caps, paths)

let pf_problem ~caps paths =
  Nf_num.Problem.create ~caps
    ~groups:
      (Array.to_list
         (Array.map
            (Nf_num.Problem.single_path (Nf_num.Utility.proportional_fair ()))
            paths))

(* A k=4 fat-tree / ECMP / proportional-fair scenario of 64 flows: the
   same kind of instance as nfbench's solve_cold, at a fraction of its
   size. *)
let xwi_problem ~k ~n_flows =
  let caps, paths = fat_tree_paths ~k ~n_flows in
  pf_problem ~caps paths

let xwi_kernel () =
  let problem = xwi_problem ~k:4 ~n_flows:64 in
  let state = Nf_num.Xwi_core.at_seed problem in
  let params = Nf_num.Xwi_core.default_params in
  fun () -> Nf_num.Xwi_core.step problem params state

(* [run_until_kkt]'s witness check: one flow's [Kkt.flow_residual] on a
   mid-run iterate, compared against a tolerance as the stopping test
   does. Cycles through the flows so every path length is exercised. The
   float result crosses from nf_num into this library; the call inlines,
   so it must not box. *)
let kkt_witness_kernel () =
  let problem = xwi_problem ~k:4 ~n_flows:64 in
  let state = Nf_num.Xwi_core.at_seed problem in
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

(* Steady churn at a constant size on the same 64-flow fat tree: the
   problem, and a thunk that removes its oldest group, adds a group in
   its place and commits. Each place alternates between its own path and
   a spare one (a second draw of 64 pairs), so every churn moves the
   population on, and some arrivals overload a link that no flow
   bottlenecked before. *)
let churn_size = 64

let churn_paths () = fat_tree_paths ~k:4 ~n_flows:(2 * churn_size)

let churn_problem () =
  let n = churn_size in
  let caps, paths = churn_paths () in
  let problem = pf_problem ~caps (Array.sub paths 0 n) in
  let utility = Nf_num.Problem.group_utility problem 0 in
  (* Initial groups get gids [0 .. n-1]. *)
  let gids = Array.init n Fun.id and spare = Array.make n false and next = ref 0 in
  let churn () =
    let k = !next in
    next := (k + 1) mod n;
    Nf_num.Problem.remove_group problem gids.(k);
    spare.(k) <- not spare.(k);
    gids.(k) <-
      Nf_num.Problem.add_group problem
        (Nf_num.Problem.single_path utility paths.(if spare.(k) then k + n else k));
    Nf_num.Problem.commit problem
  in
  (problem, churn)

(* The commit layer of a serve epoch alone: the churn above. The commit
   patches the snapshot's arrays in place, so the churn owes, on 64-bit,
   only what one arrival adds to the ledger and the commit's new
   snapshot record, and nothing per flow or per link:
   - the caller's group spec: its record (two fields) and its one-path
     list cell;
   - the ledger entry: its record (five fields), its array of one path
     and the path's copy;
   - the gid table's bucket for the new gid (the departed gid's bucket
     is unlinked, so the table keeps its size);
   - the [Incidence.t] record (thirteen fields).
   Each with its header. The path copy's length is the arriving pair's
   path length, so it is charged at its mean over one period of the
   churn, in which each of the 2n paths arrives once; the audit's warmup
   and its measurement start on a period boundary. *)
let commit_kernel () =
  let _, churn = churn_problem () in
  let _, paths = churn_paths () in
  let path_words =
    float_of_int (Array.fold_left (fun acc p -> acc + Array.length p + 1) 0 paths)
    /. float_of_int (Array.length paths)
  in
  (churn, 8. *. (float_of_int (3 + 3 + 6 + 2 + 4 + 14) +. path_words))

(* A warm restart: the churn above, then [Xwi_core.resize] of the last
   state. [run] charges these kernels only their bytes beyond those of
   the same churn on an identical problem without the resize (the
   [problem_commit] kernel's bytes). Returns the thunk and the
   bytes a resize owes on 64-bit: the new state, that is its record
   (seven fields) and its two per-flow arrays (rates and weights), each
   with its header, and nothing more when it polishes: the price array
   is handed down with the scratch, the polish writes into that
   scratch, and the carried water-fill it may ask for is a closed
   top-level function, no closure. The serve loop's restart polishes (polished starts included:
   the utilities are [Log], and the churn makes many polishes add links
   to their active set over several rounds); the fluid xWI scheme's
   rebind does not. *)
let resize_kernel ~polish =
  let problem, churn = churn_problem () in
  let state = ref (Nf_num.Xwi_core.at_seed problem) in
  ignore
    (Nf_num.Xwi_core.run_until_kkt problem Nf_num.Xwi_core.default_params !state
      : Nf_num.Xwi_core.run);
  let words = 8 + (2 * (Nf_num.Problem.n_flows problem + 1)) in
  ( (fun () ->
      churn ();
      (* Constant arguments: a variable [~polish] would box its option. *)
      state :=
        if polish then Nf_num.Xwi_core.resize problem !state
        else Nf_num.Xwi_core.resize ~polish:false problem !state),
    float_of_int (8 * words) )

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

(* (kernel, thunk, baseline, bytes it owes by design). A kernel with a
   baseline is charged its bytes per iteration less the baseline's. *)
let kernels () =
  let plain name f = (name, f, None, 0.) in
  [
    plain "fheap_push_pop" (fheap_kernel ());
    plain "stfq_enqueue_dequeue" (stfq_kernel ());
    plain "sim_schedule_dispatch" (sim_kernel ());
    plain "sim_overflow" (sim_overflow_kernel ());
    plain "sim_same_time_tie" (sim_tie_kernel ());
    plain "packet_hop" (packet_hop_kernel ());
    plain "packet_round_trip" (packet_round_trip_kernel ());
    plain "paced_send" (paced_send_kernel ());
    plain "price_update" (price_update_kernel ());
    plain "xwi_step" (xwi_kernel ());
    plain "kkt_witness_check" (kkt_witness_kernel ());
    plain "maxmin_solve_sparse" (maxmin_kernel ());
    (let commit, owed = commit_kernel () in
     ("problem_commit", commit, None, owed));
    (let resize, owed = resize_kernel ~polish:true in
     ("xwi_resize", resize, Some (snd (churn_problem ())), owed));
    (let carry, owed = resize_kernel ~polish:false in
     ("xwi_carry", carry, Some (snd (churn_problem ())), owed));
  ]

let run ?iters () =
  let measure f = bytes_per_iteration ?iters f in
  List.map
    (fun (kernel, f, baseline, owed) ->
      let base = match baseline with None -> 0. | Some b -> measure b in
      { kernel; bytes_per_iter = measure f -. base; owed })
    (kernels ())

let within r =
  r.bytes_per_iter <= r.owed +. budget
  && (r.owed <= 0. || r.bytes_per_iter > r.owed -. word)
