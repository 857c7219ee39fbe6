(* serve_churn: the always-on allocation service under flow churn.

   Input: [Scenario.leaf_spine] (the paper fabric, 320 links, a 1000-path
   pool drawn from the seed) and a ramp of [target] proportional-fair
   flow arrivals, all drawn from the seed. A closed loop of one client
   then sends one command per op through the wire codec, the engine
   solves one epoch, and the client decodes the reply; the next command
   is drawn only after the reply, so a slow epoch delays the stream
   instead of queueing behind it. Op 0 is a [Solve] command: the cold
   first epoch over the ramp. Every later op carries one churn event.

   The cold epoch is an op rather than set-up because its cost depends
   on the ramp's population: from 238 to 7507 iterations over ten seeds,
   which would make set-up time a property of the seed.

   The traced pass replays each epoch through the public calls
   [Engine.solve_epoch] makes ([Problem.commit], [Xwi_core.init] or
   [Xwi_core.resize], then [Kkt.check]/[Xwi_core.step] until the residual
   is below tolerance), with a span around each, and proves the replay
   faithful: every epoch takes exactly the iterations the engine took,
   and the final rates and prices are bit-identical. *)

module Engine = Nf_serve.Engine
module Protocol = Nf_serve.Protocol
module Scenario = Nf_serve.Scenario
module Sjson = Nf_serve.Sjson
module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Kkt = Nf_num.Kkt
module Rng = Nf_util.Rng

type size = {
  target : int;  (* standing flow population *)
  events : int;  (* churn ops after the cold epoch *)
  setups : int;  (* setup_s samples *)
  setup_batch : int;  (* set-ups per sample *)
}

(* About 50 epochs a second on a 2-core VM: a 30 s run makes 1500
   epochs, so the p99 has 15 samples beyond it (10 need 1000). A set-up
   takes about 3 ms, so a setup_s sample is 16 of them. *)
let full ~seconds =
  {
    target = 100;
    events = 50 * seconds;
    setups = 11;
    setup_batch = 16;
  }

let tiny = { target = 8; events = 12; setups = 2; setup_batch = 1 }

(* The engine's own defaults, restated so the replay stops where it does. *)
let max_iters = 50_000

let params = Xwi_core.default_params

(* ------------------------------------------------------------------ *)
(* The churn client: the seeded event stream plus the live gid list. *)

type client = {
  sc : Scenario.t;
  rng : Rng.t;
  mutable live : int array;
  mutable n_live : int;
}

let client ~seed =
  {
    sc = Scenario.leaf_spine ~seed ();
    rng = Rng.create ~seed:(seed lxor 0x5eed);
    live = Array.make 16 0;
    n_live = 0;
  }

let arrived c gid =
  if c.n_live = Array.length c.live then begin
    let grown = Array.make (2 * c.n_live) 0 in
    Array.blit c.live 0 grown 0 c.n_live;
    c.live <- grown
  end;
  c.live.(c.n_live) <- gid;
  c.n_live <- c.n_live + 1

let next_event c ~target =
  match Scenario.next_event c.rng c.sc ~live:c.n_live ~target with
  | Scenario.Arrive i ->
    Protocol.Add
      { utility = Protocol.Pf { weight = 1. }; paths = [ c.sc.Scenario.path_pool.(i) ] }
  | Scenario.Depart j ->
    let gid = c.live.(j) in
    c.live.(j) <- c.live.(c.n_live - 1);
    c.n_live <- c.n_live - 1;
    Protocol.Remove { gid }

let command c ~target ~op = if op = 0 then Protocol.Solve else next_event c ~target

let decode_exn = function Ok v -> v | Error e -> failwith ("serve_churn codec: " ^ e)

let reply ~gid ~epoch ~iterations ~converged =
  let num i = Sjson.Num (float_of_int i) in
  Protocol.ok
    ((match gid with Some g -> [ ("gid", num g) ] | None -> [])
    @ [ ("epoch", num epoch); ("iterations", num iterations); ("converged", Sjson.Bool converged) ])

let reply_gid fields = Option.bind (List.assoc_opt "gid" fields) Sjson.to_int

(* ------------------------------------------------------------------ *)
(* Untraced path: the engine itself. *)

let apply_engine engine = function
  | Protocol.Add { utility; paths } ->
    Some (Engine.add_flow engine ~utility:(Protocol.utility utility) ~paths)
  | Protocol.Remove { gid } ->
    Engine.remove_flow engine gid;
    None
  | Protocol.Solve -> None
  | _ -> invalid_arg "serve_churn: unexpected command"

(* Input generation and the ramp, up to the first op. *)
let setup ~seed ~target =
  let c = client ~seed in
  let engine = Engine.create ~tol:Gate.kkt_tol ~max_iters ~caps:c.sc.Scenario.caps () in
  while c.n_live < target do
    Option.iter (arrived c) (apply_engine engine (next_event c ~target))
  done;
  (c, engine)

(* One op; returns its latency and epoch. *)
let op c engine ~target ~op =
  let cmd = command c ~target ~op in
  let t0 = Spans.now () in
  let cmd = decode_exn (Protocol.decode_command (Protocol.encode_command cmd)) in
  let gid = apply_engine engine cmd in
  let ep = Engine.solve_epoch engine in
  let fields =
    decode_exn
      (Protocol.decode_reply
         (reply ~gid ~epoch:ep.Engine.epoch ~iterations:ep.Engine.iterations
            ~converged:ep.Engine.converged))
  in
  let dt = Spans.now () -. t0 in
  Option.iter (arrived c) (reply_gid fields);
  (dt, ep)

type pass = {
  lat : float array;  (* seconds per op *)
  iters : int array;  (* xWI iterations per epoch *)
  failed : int;
  busy : float;  (* CPU seconds of the whole op loop *)
  gc : int * int;  (* minor, major collections during the loop *)
  problems : string list;
  rates : float array;  (* final allocation *)
  prices : float array;
}

(* [tick ~progress] runs after every op, off the clock. *)
let untraced_pass ?(tick = fun ~progress:_ -> ()) ~size c engine =
  let n = size.events + 1 in
  let lat = Array.make n 0. and iters = Array.make n 0 in
  let failed = ref 0 and busy = ref 0. in
  let minor0, major0 = Outcome.gc_counts () in
  for i = 0 to n - 1 do
    let t0 = Spans.now () in
    let dt, ep = op c engine ~target:size.target ~op:i in
    busy := !busy +. (Spans.now () -. t0);
    lat.(i) <- dt;
    iters.(i) <- ep.Engine.iterations;
    if not ep.Engine.converged then incr failed;
    tick ~progress:(float_of_int (i + 1) /. float_of_int n)
  done;
  let minor1, major1 = Outcome.gc_counts () in
  let rates = Engine.rates engine and prices = Engine.prices engine in
  {
    lat;
    iters;
    failed = !failed;
    busy = !busy;
    gc = (minor1 - minor0, major1 - major0);
    problems =
      (if !failed = 0 then [] else [ Printf.sprintf "%d epochs did not converge" !failed ])
      @ Option.to_list (Gate.allocation (Engine.problem engine) ~rates ~prices);
    rates = Array.copy rates;
    prices = Array.copy prices;
  }

(* ------------------------------------------------------------------ *)
(* Traced path: the same epochs replayed call by call. *)

type kinds = {
  k_op : int;
  k_codec : int;
  k_ledger : int;
  k_epoch : int;
  k_commit : int;
  k_resize : int;
  k_check : int;
  k_step : int;
}

let kinds sp =
  let k = Spans.kind sp in
  {
    k_op = k "serve.op";
    k_codec = k "protocol.codec";
    k_ledger = k "problem.ledger";
    k_epoch = k "serve.epoch";
    k_commit = k "problem.commit";
    k_resize = k "xwi.resize";
    k_check = k "kkt.check";
    k_step = k "xwi.step";
  }

type replay = { problem : Problem.t; mutable state : Xwi_core.state option }

let apply_problem p = function
  | Protocol.Add { utility; paths } ->
    Some (Problem.add_group p { Problem.utility = Protocol.utility utility; paths })
  | Protocol.Remove { gid } ->
    Problem.remove_group p gid;
    None
  | Protocol.Solve -> None
  | _ -> invalid_arg "serve_churn: unexpected command"

(* [Engine.solve_epoch] with a span around every layer call; returns
   (iterations, converged). *)
let replay_epoch sp k r =
  let e = Spans.enter sp k.k_epoch in
  let s = Spans.enter sp k.k_commit in
  Problem.commit r.problem;
  Spans.leave sp s;
  let result =
    if Problem.n_flows r.problem = 0 then begin
      r.state <- None;
      (0, true)
    end
    else begin
      let s = Spans.enter sp k.k_resize in
      let st =
        match r.state with
        | Some old -> Xwi_core.resize r.problem old
        | None -> Xwi_core.init r.problem
      in
      Spans.leave sp s;
      r.state <- Some st;
      let rec loop iter =
        let s = Spans.enter sp k.k_check in
        let worst =
          Kkt.worst (Kkt.check r.problem ~rates:st.Xwi_core.rates ~prices:st.Xwi_core.prices)
        in
        Spans.leave sp s;
        if worst <= Gate.kkt_tol then (iter, true)
        else if iter >= max_iters then (iter, false)
        else begin
          let s = Spans.enter sp k.k_step in
          Xwi_core.step r.problem params st;
          Spans.leave sp s;
          loop (iter + 1)
        end
      in
      loop 0
    end
  in
  Spans.leave sp e;
  result

let replay_setup ~seed ~target =
  let c = client ~seed in
  let r = { problem = Problem.create_groups ~caps:c.sc.Scenario.caps ~groups:[||]; state = None } in
  while c.n_live < target do
    Option.iter (arrived c) (apply_problem r.problem (next_event c ~target))
  done;
  (c, r)

let traced_op sp k c r ~target ~op =
  let cmd = command c ~target ~op in
  Spans.set_op sp op;
  let o = Spans.enter sp k.k_op in
  let s = Spans.enter sp k.k_codec in
  let cmd = decode_exn (Protocol.decode_command (Protocol.encode_command cmd)) in
  Spans.leave sp s;
  let s = Spans.enter sp k.k_ledger in
  let gid = apply_problem r.problem cmd in
  Spans.leave sp s;
  let iterations, converged = replay_epoch sp k r in
  let s = Spans.enter sp k.k_codec in
  let fields =
    decode_exn (Protocol.decode_reply (reply ~gid ~epoch:(op + 1) ~iterations ~converged))
  in
  Spans.leave sp s;
  Spans.leave sp o;
  Option.iter (arrived c) (reply_gid fields);
  iterations

let same_floats a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* ------------------------------------------------------------------ *)

let fingerprint p =
  [ ("serve.cold_iters", p.iters.(0)); ("serve.iters", Array.fold_left ( + ) 0 p.iters) ]

let run ~size ~seed ~trace ~spans_out =
  if not trace then begin
    let sampler, (c, engine) =
      Outcome.setup ~samples:size.setups ~batch:size.setup_batch
        (fun () -> setup ~seed ~target:size.target)
    in
    let p = untraced_pass ~tick:(Outcome.tick sampler) ~size c engine in
    let setup_s = Outcome.setup_s sampler in
    let lat = Calib.reference_times sampler.Outcome.calib p.lat in
    let ms = 1e3 in
    {
      Outcome.attempted = Array.length lat;
      failed = p.failed;
      problems = p.problems;
      metrics =
        [
          Outcome.metric "setup_s" "s" setup_s;
          Outcome.metric "op_p50_ms" "ms" (ms *. Outcome.percentile lat 50.);
          Outcome.metric "ops_per_s" "1/s" (float_of_int (Array.length lat) /. Outcome.sum lat);
        ];
      fingerprint = fingerprint p;
    }
  end
  else begin
    let c, engine = setup ~seed ~target:size.target in
    let calib = Calib.create () in
    let p = untraced_pass ~tick:(fun ~progress:_ -> Calib.sample calib) ~size c engine in
    let sp = Spans.create () in
    let k = kinds sp in
    let c, r = replay_setup ~seed ~target:size.target in
    let mismatches = ref 0 in
    let t0 = Spans.now () in
    Array.iteri
      (fun i expected ->
        if traced_op sp k c r ~target:size.target ~op:i <> expected then incr mismatches)
      p.iters;
    let traced_busy = Spans.now () -. t0 in
    Spans.write sp spans_out;
    let same_allocation =
      match r.state with
      | Some st -> same_floats st.Xwi_core.rates p.rates && same_floats st.Xwi_core.prices p.prices
      | None -> Array.length p.rates = 0
    in
    let problems =
      (if !mismatches = 0 then []
       else [ Printf.sprintf "%d replayed epochs differ in iterations" !mismatches ])
      @ (if same_allocation then [] else [ "replayed allocation differs from the engine's" ])
      @ p.problems
    in
    let s = Spans.summary sp in
    let a name = Spans.find s name in
    let us = 1e6 in
    let n = Array.length p.iters in
    let total_iters = Array.fold_left ( + ) 0 p.iters in
    let minor, major = p.gc in
    {
      Outcome.attempted = n;
      failed = p.failed;
      problems;
      metrics =
        [
          Outcome.metric "op.p99_ms" "ms"
            (1e3 *. Outcome.percentile (Calib.reference_times calib p.lat) 99.);
          Outcome.metric "calib.pass_ms" "ms" (1e3 *. Calib.median_pass calib);
          Outcome.metric "protocol.codec_us" "us"
            ((a "protocol.codec").Spans.self_s *. us /. float_of_int n);
          Outcome.metric "problem.ledger_us" "us" (Spans.mean_self ~scale:us (a "problem.ledger"));
          Outcome.metric "problem.commit_us" "us" (Spans.mean_self ~scale:us (a "problem.commit"));
          Outcome.metric "problem.commit_bytes" "B" (a "problem.commit").Spans.bytes_p50;
          Outcome.metric "xwi.resize_us" "us" (Spans.mean_self ~scale:us (a "xwi.resize"));
          Outcome.metric "xwi.resize_bytes" "B" (a "xwi.resize").Spans.bytes_p50;
          Outcome.metric "xwi.step_us" "us" (Spans.mean_self ~scale:us (a "xwi.step"));
          Outcome.metric "xwi.step_bytes" "B" (a "xwi.step").Spans.bytes_p50;
          Outcome.metric "kkt.check_us" "us" (Spans.mean_self ~scale:us (a "kkt.check"));
          Outcome.metric "kkt.check_bytes" "B" (a "kkt.check").Spans.bytes_p50;
          Outcome.metric "kkt.checks" "count" (float_of_int (a "kkt.check").Spans.calls);
          Outcome.metric "serve.iters_per_epoch" "count" (float_of_int total_iters /. float_of_int n);
          Outcome.metric "serve.iters_p99" "count"
            (Outcome.percentile (Array.map float_of_int p.iters) 99.);
          Outcome.metric "xwi.iters" "count" (float_of_int total_iters);
          Outcome.metric "gc.minor_collections" "count" (float_of_int minor);
          Outcome.metric "gc.major_collections" "count" (float_of_int major);
          Outcome.metric "trace.overhead_pct" "%" (100. *. ((traced_busy /. p.busy) -. 1.));
        ];
      fingerprint = fingerprint p;
    }
  end
