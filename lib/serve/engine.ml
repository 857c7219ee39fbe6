module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Metrics = Nf_util.Metrics

(* Service metrics; registration is idempotent, so several engines in one
   process share the counters (registry semantics, same as the solver
   metrics in Xwi_core). *)
let m_events =
  Metrics.counter Metrics.global ~help:"flow events applied" "nf_serve_events_total"

let m_epochs =
  Metrics.counter Metrics.global ~help:"epoch solves" "nf_serve_epochs_total"

let m_warm_epochs =
  Metrics.counter Metrics.global ~help:"warm-started epoch solves"
    "nf_serve_warm_epochs_total"

let m_groups =
  Metrics.gauge Metrics.global ~help:"live groups" "nf_serve_groups"

let m_flows = Metrics.gauge Metrics.global ~help:"live sub-flows" "nf_serve_flows"

let m_latency =
  Metrics.histogram Metrics.global ~help:"time to new allocation (s)"
    ~buckets:[ 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1. ]
    "nf_serve_alloc_seconds"

let m_iters =
  Metrics.histogram Metrics.global ~help:"xWI iterations per epoch"
    ~buckets:[ 1.; 3.; 10.; 30.; 100.; 300.; 1000.; 10000. ]
    "nf_serve_epoch_iters"

let latency_window = 8192

type epoch = {
  epoch : int;
  events : int;
  iterations : int;
  converged : bool;
  warm : bool;
  elapsed : float;
  n_groups : int;
  n_flows : int;
}

type stats = {
  epochs : int;
  total_events : int;
  warm_epochs : int;
  cold_epochs : int;
  warm_iters : int;
  cold_iters : int;
  p50_latency : float;
  p99_latency : float;
  mean_latency : float;
}

type t = {
  problem : Problem.t;
  tol : float;
  max_iters : int;
  mutable state : Xwi_core.state option;
  mutable pending : int;  (* events since the last epoch *)
  mutable epochs : int;
  mutable total_events : int;
  mutable warm_epochs : int;
  mutable cold_epochs : int;
  mutable warm_iters : int;
  mutable cold_iters : int;
  (* ring of recent epoch latencies (wall seconds) *)
  lat : float array;
  mutable lat_n : int;  (* samples ever recorded *)
}

let create ?(tol = 1e-6) ?(max_iters = 50_000) ~caps () =
  {
    problem = Problem.create_groups ~caps ~groups:[||];
    tol;
    max_iters;
    state = None;
    pending = 0;
    epochs = 0;
    total_events = 0;
    warm_epochs = 0;
    cold_epochs = 0;
    warm_iters = 0;
    cold_iters = 0;
    lat = Array.make latency_window 0.;
    lat_n = 0;
  }

let problem t = t.problem

let event t =
  t.pending <- t.pending + 1;
  t.total_events <- t.total_events + 1;
  Metrics.incr m_events

let add_flow t ~utility ~paths =
  let gid = Problem.add_group t.problem { Problem.utility; paths } in
  event t;
  gid

let remove_flow t gid =
  Problem.remove_group t.problem gid;
  event t

let set_cap t link cap =
  Problem.set_cap t.problem link cap;
  event t

let pending_events t = t.pending

let record_latency t v =
  t.lat.(t.lat_n mod latency_window) <- v;
  t.lat_n <- t.lat_n + 1;
  Metrics.observe m_latency v

let solve_epoch t =
  let t0 = (Unix.gettimeofday () [@nf.allow "determinism"]) in
  Problem.commit t.problem;
  let n_flows = Problem.n_flows t.problem in
  let batched = t.pending in
  t.pending <- 0;
  t.epochs <- t.epochs + 1;
  Metrics.incr m_epochs;
  let iterations, converged, warm =
    if n_flows = 0 then begin
      (* Empty fabric: nothing to allocate; drop any carried state so the
         next non-empty epoch starts cold (there is no price vector worth
         carrying across an empty interval). *)
      t.state <- None;
      (0, true, false)
    end
    else begin
      let warm = Option.is_some t.state in
      let state, run =
        (* KKT-residual stopping, not per-iteration deltas: near a warm
           fixpoint the deltas stall at numerical noise long after the
           iterate is optimal (see [run_until_kkt]'s doc). Check
           granularity 1 keeps warm epochs from overshooting, and costs
           little: after a failed check only its witness flow is
           recomputed until that one clears. A warm epoch the polished
           start certifies (nearly all of nfbench's serve_churn stream)
           runs one full KKT sweep, this one at iteration 0: [resize]
           runs none. *)
        Xwi_core.solve ~tol:t.tol ~check_every:1 ~max_iters:t.max_iters t.problem
          t.state
      in
      t.state <- Some state;
      (run.Xwi_core.iterations, run.Xwi_core.converged, warm)
    end
  in
  if warm then begin
    t.warm_epochs <- t.warm_epochs + 1;
    t.warm_iters <- t.warm_iters + iterations;
    Metrics.incr m_warm_epochs
  end
  else begin
    t.cold_epochs <- t.cold_epochs + 1;
    t.cold_iters <- t.cold_iters + iterations
  end;
  Metrics.observe m_iters (float_of_int iterations);
  Metrics.set_gauge m_groups (float_of_int (Problem.n_groups t.problem));
  Metrics.set_gauge m_flows (float_of_int n_flows);
  let elapsed = (Unix.gettimeofday () [@nf.allow "determinism"]) -. t0 in
  record_latency t elapsed;
  {
    epoch = t.epochs;
    events = batched;
    iterations;
    converged;
    warm;
    elapsed;
    n_groups = Problem.n_groups t.problem;
    n_flows;
  }

let ensure_fresh t =
  if t.pending > 0 || Problem.dirty t.problem then ignore (solve_epoch t)

let empty_rates = [||]

let rates t =
  ensure_fresh t;
  match t.state with Some s -> s.Xwi_core.rates | None -> empty_rates

let prices t =
  ensure_fresh t;
  match t.state with
  | Some s -> s.Xwi_core.prices
  | None -> Array.make (Problem.n_links t.problem) 0.

let group_rate t gid =
  ensure_fresh t;
  match (Problem.group_index t.problem gid, t.state) with
  | Some g, Some s -> Some (Problem.group_rate t.problem ~rates:s.Xwi_core.rates g)
  | _ -> None

let stats t =
  let n = Stdlib.min t.lat_n latency_window in
  let p50, p99, mean =
    if n = 0 then (0., 0., 0.)
    else begin
      let xs = Array.sub t.lat 0 n in
      ( Nf_util.Stats.percentile xs 50.,
        Nf_util.Stats.percentile xs 99.,
        Nf_util.Stats.mean xs )
    end
  in
  {
    epochs = t.epochs;
    total_events = t.total_events;
    warm_epochs = t.warm_epochs;
    cold_epochs = t.cold_epochs;
    warm_iters = t.warm_iters;
    cold_iters = t.cold_iters;
    p50_latency = p50;
    p99_latency = p99;
    mean_latency = mean;
  }
