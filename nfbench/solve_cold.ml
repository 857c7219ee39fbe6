(* solve_cold: the solver used as a batch oracle.

   Input: a k=8 fat tree (768 links) and, per op, a fresh instance of
   2560 random ECMP-routed proportional-fair flows drawn from the seed
   (the xwi_iters_per_sec@10x problem). Op: [Xwi_core.init], then
   [Xwi_core.run_until_kkt ~tol:1e-6] (KKT checked every 10 iterations).
   Ops run back to back; the next instance is built off the clock.

   The traced pass replays each solve as [init] then the same
   check-every-10 loop of [Kkt.check] and [Xwi_core.step] calls, and must
   take exactly the iterations the untraced solve took. After each solve
   it times [Maxmin.solve_sparse] on the solved weights, off the critical
   path, to attribute the water-fill share of a step. *)

module Builders = Nf_topo.Builders
module Routing = Nf_topo.Routing
module Topology = Nf_topo.Topology
module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Kkt = Nf_num.Kkt
module Maxmin = Nf_num.Maxmin
module Incidence = Nf_num.Incidence
module Rng = Nf_util.Rng

type size = {
  k : int;  (* fat-tree arity *)
  flows : int;  (* flows per instance *)
  solves : int;
  setups : int;  (* setup_s samples *)
  setup_batch : int;  (* set-ups per sample *)
}

(* A cold solve takes about 3.5 s on a 2-core VM: seven in a 30 s run,
   some 2500 ops. A set-up takes about 12 ms, so a setup_s sample is four
   of them. *)
let full ~seconds =
  {
    k = 8;
    flows = 2560;
    solves = Stdlib.max 2 (seconds / 4);
    setups = 11;
    setup_batch = 4;
  }

let tiny = { k = 4; flows = 64; solves = 2; setups = 2; setup_batch = 1 }

(* [run_until_kkt]'s defaults, restated for the replay. *)
let check_every = 10

let max_iters = 50_000

let params = Xwi_core.default_params

type fabric = { topo : Topology.t; servers : int array; caps : float array }

let fabric k =
  let ft = Builders.fat_tree ~k () in
  let topo = ft.Builders.ft_topo in
  {
    topo;
    servers = ft.Builders.ft_servers;
    caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topo);
  }

(* Instance [op] of [seed]: its own random pairs, ECMP-routed. *)
let routes fab router ~size ~seed ~op =
  let rng = Rng.create ~seed:((seed * 7919) + op) in
  let pairs = Nf_workload.Traffic.random_pairs rng ~hosts:fab.servers ~n:size.flows in
  Array.mapi
    (fun i { Nf_workload.Traffic.src; dst } ->
      Array.of_list (Routing.ecmp_path_fast router ~src ~dst ~hash:(i * 2654435761)))
    pairs

let problem fab paths =
  let u = Nf_num.Utility.proportional_fair () in
  Problem.create_groups ~caps:fab.caps ~groups:(Array.map (Problem.single_path u) paths)

let instance fab router ~size ~seed ~op = problem fab (routes fab router ~size ~seed ~op)

(* Input generation up to the first op's problem. *)
let setup ~size ~seed =
  let fab = fabric size.k in
  let router = Routing.router fab.topo in
  (fab, router, instance fab router ~size ~seed ~op:0)

type pass = {
  op_times : float array;  (* seconds per op *)
  solve_ops : int array;  (* ops per solve; they follow one another *)
  iters : int array;  (* per solve *)
  failed : int;  (* ops of solves that hit [max_iters] *)
  busy : float;  (* CPU seconds of all ops *)
  gc : int * int;
  problems : string list;
}

(* Each solve is the op sequence [run_until_kkt ~check_every:10] runs:
   [init] and the first KKT check, then every [check_every] steps with
   the check that follows them. Ops tile the solve, so their times sum
   to the solve's. [tick ~progress] runs after every op, off the clock;
   progress counts whole solves. *)
let untraced_pass ?(tick = fun ~progress:_ -> ()) ~size ~seed fab router p0 =
  let ops = ref (Array.make 4096 0.) and n_ops = ref 0 in
  let push dt =
    if !n_ops = Array.length !ops then begin
      let grown = Array.make (2 * !n_ops) 0. in
      Array.blit !ops 0 grown 0 !n_ops;
      ops := grown
    end;
    !ops.(!n_ops) <- dt;
    incr n_ops
  in
  let n = size.solves in
  let solve_ops = Array.make n 0 and iters = Array.make n 0 in
  let failed = ref 0 and problems = ref [] in
  let minor0, major0 = Outcome.gc_counts () in
  let p = ref p0 in
  for i = 0 to n - 1 do
    let first = !n_ops in
    let t_start = Spans.now () in
    let st = Xwi_core.init !p in
    let rec loop iter t0 =
      let worst =
        Kkt.worst (Kkt.check !p ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices)
      in
      push (Spans.now () -. t0);
      tick ~progress:(float_of_int i /. float_of_int n);
      if worst <= Gate.kkt_tol then (iter, true)
      else if iter >= max_iters then (iter, false)
      else begin
        let t0 = Spans.now () in
        let chunk = Stdlib.min check_every (max_iters - iter) in
        for _ = 1 to chunk do
          Xwi_core.step !p params st
        done;
        loop (iter + chunk) t0
      end
    in
    let iterations, converged = loop 0 t_start in
    solve_ops.(i) <- !n_ops - first;
    iters.(i) <- iterations;
    if not converged then failed := !failed + (!n_ops - first);
    (match Gate.allocation !p ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices with
    | Some why -> problems := Printf.sprintf "solve %d: %s" i why :: !problems
    | None -> ());
    if i + 1 < n then p := instance fab router ~size ~seed ~op:(i + 1)
  done;
  let minor1, major1 = Outcome.gc_counts () in
  let op_times = Array.sub !ops 0 !n_ops in
  {
    op_times;
    solve_ops;
    iters;
    failed = !failed;
    busy = Outcome.sum op_times;
    gc = (minor1 - minor0, major1 - major0);
    problems = List.rev !problems;
  }

(* ------------------------------------------------------------------ *)
(* Traced pass *)

let maxmin_reps = 10

let traced_pass ~size ~seed ~expect sp =
  let k = Spans.kind sp in
  let k_route = k "topo.route" and k_create = k "problem.create" and k_op = k "xwi.solve" in
  let k_init = k "xwi.init" and k_check = k "kkt.check" and k_step = k "xwi.step" in
  let k_maxmin = k "maxmin.solve" in
  let fab = fabric size.k in
  let s = Spans.enter sp k_route in
  let router = Routing.router fab.topo in
  Spans.leave sp s;
  let build ~op =
    let s = Spans.enter sp k_route in
    let paths = routes fab router ~size ~seed ~op in
    Spans.leave sp s;
    let s = Spans.enter sp k_create in
    let p = problem fab paths in
    Spans.leave sp s;
    p
  in
  let mismatches = ref 0 and busy = ref 0. in
  let rounds = ref 0 and saturated = ref 0 in
  for i = 0 to size.solves - 1 do
    Spans.set_op sp i;
    let p = build ~op:i in
    let o = Spans.enter sp k_op in
    let s = Spans.enter sp k_init in
    let st = Xwi_core.init p in
    Spans.leave sp s;
    let rec loop iter =
      let s = Spans.enter sp k_check in
      let worst = Kkt.worst (Kkt.check p ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices) in
      Spans.leave sp s;
      if worst <= Gate.kkt_tol || iter >= max_iters then iter
      else begin
        let chunk = Stdlib.min check_every (max_iters - iter) in
        for _ = 1 to chunk do
          let s = Spans.enter sp k_step in
          Xwi_core.step p params st;
          Spans.leave sp s
        done;
        loop (iter + chunk)
      end
    in
    let iters = loop 0 in
    Spans.leave sp o;
    busy := !busy +. (sp.Spans.stop.(o) -. sp.Spans.start.(o));
    if iters <> expect.(i) then incr mismatches;
    (* Water-fill attribution, off the critical path. *)
    let inc = Problem.incidence p in
    let ws = Maxmin.sparse_workspace inc in
    let weights = Incidence.vec_of_array st.Xwi_core.weights in
    let rates = Incidence.vec (Problem.n_flows p) in
    for _ = 1 to maxmin_reps do
      let s = Spans.enter sp k_maxmin in
      Maxmin.solve_sparse ws inc ~weights ~rates;
      Spans.leave sp s
    done;
    rounds := !rounds + Maxmin.sparse_rounds ws;
    saturated := !saturated + Maxmin.sparse_saturated_links ws
  done;
  let per_op x = float_of_int x /. float_of_int size.solves in
  (!mismatches, !busy, per_op !rounds, per_op !saturated)

let run ~size ~seed ~trace ~spans_out =
  if not trace then begin
    let sampler, (fab, router, p0) =
      Outcome.setup ~samples:size.setups ~batch:size.setup_batch
        (fun () -> setup ~size ~seed)
    in
    let p = untraced_pass ~tick:(Outcome.tick sampler) ~size ~seed fab router p0 in
    let setup_s = Outcome.setup_s sampler in
    let op_times = Calib.reference_times sampler.Outcome.calib p.op_times in
    let ms = 1e3 in
    let n_ops = Array.length op_times in
    {
      Outcome.attempted = n_ops;
      failed = p.failed;
      problems = p.problems;
      metrics =
        [
          Outcome.metric "setup_s" "s" setup_s;
          Outcome.metric "op_p50_ms" "ms" (ms *. Outcome.percentile op_times 50.);
          Outcome.metric "ops_per_s" "1/s" (float_of_int n_ops /. Outcome.sum op_times);
        ];
      fingerprint = [ ("xwi.iters", Array.fold_left ( + ) 0 p.iters) ];
    }
  end
  else begin
    let fab, router, p0 = setup ~size ~seed in
    let calib = Calib.create () in
    let p = untraced_pass ~tick:(fun ~progress:_ -> Calib.sample calib) ~size ~seed fab router p0 in
    let op_times = Calib.reference_times calib p.op_times in
    let solve_times =
      let first = ref 0 in
      Array.map
        (fun n ->
          let t = Outcome.sum (Array.sub op_times !first n) in
          first := !first + n;
          t)
        p.solve_ops
    in
    let sp = Spans.create () in
    let mismatches, traced_busy, rounds, saturated = traced_pass ~size ~seed ~expect:p.iters sp in
    Spans.write sp spans_out;
    let s = Spans.summary sp in
    let a name = Spans.find s name in
    let us = 1e6 and ms = 1e3 in
    let minor, major = p.gc in
    {
      Outcome.attempted = Array.length p.op_times;
      failed = p.failed;
      problems =
        (if mismatches = 0 then []
         else [ Printf.sprintf "%d replayed solves differ in iterations" mismatches ])
        @ p.problems;
      metrics =
        [
          Outcome.metric "op.p99_ms" "ms" (ms *. Outcome.percentile op_times 99.);
          Outcome.metric "calib.pass_ms" "ms" (ms *. Calib.median_pass calib);
          Outcome.metric "xwi.step_us" "us" (Spans.mean_self ~scale:us (a "xwi.step"));
          Outcome.metric "xwi.step_bytes" "B" (a "xwi.step").Spans.bytes_p50;
          Outcome.metric "kkt.check_us" "us" (Spans.mean_self ~scale:us (a "kkt.check"));
          Outcome.metric "kkt.check_bytes" "B" (a "kkt.check").Spans.bytes_p50;
          Outcome.metric "kkt.checks" "count" (float_of_int (a "kkt.check").Spans.calls);
          Outcome.metric "xwi.iters" "count" (float_of_int (Array.fold_left ( + ) 0 p.iters));
          Outcome.metric "solve.p50_ms" "ms" (ms *. Outcome.median solve_times);
          Outcome.metric "xwi.init_ms" "ms" (Spans.mean_self ~scale:ms (a "xwi.init"));
          Outcome.metric "maxmin.solve_us" "us" (Spans.mean_self ~scale:us (a "maxmin.solve"));
          Outcome.metric "maxmin.rounds" "count" rounds;
          Outcome.metric "maxmin.saturated_links" "count" saturated;
          Outcome.metric "topo.route_ms" "ms"
            ((a "topo.route").Spans.self_s *. ms /. float_of_int size.solves);
          Outcome.metric "problem.create_ms" "ms" (Spans.mean_self ~scale:ms (a "problem.create"));
          Outcome.metric "gc.minor_collections" "count" (float_of_int minor);
          Outcome.metric "gc.major_collections" "count" (float_of_int major);
          Outcome.metric "trace.overhead_pct" "%" (100. *. ((traced_busy /. p.busy) -. 1.));
        ];
      fingerprint = [ ("xwi.iters", Array.fold_left ( + ) 0 p.iters) ];
    }
  end
