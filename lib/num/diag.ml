module Json = Nf_util.Json
module Trace = Nf_util.Trace

(* Opt-in per-iteration solver instrumentation. A [t] is attached to one
   [Xwi_core.state]; the solver snapshots prices/rates before each step
   ([begin_iter]) and hands the post-step arrays plus the water-fill and
   shard statistics to [observe], which derives residual norms, keeps a
   ring of the last K iteration samples, tracks first-iteration-to-ε, and
   emits [XwiResidual] trace events. Everything here is off the hot path
   by construction: a state without a diag pays one [match] per step. *)

type sample = {
  s_iter : int;  (* 1-based iteration index within this state's life *)
  s_residual : float;  (* max relative price/rate change (fixpoint metric) *)
  s_price_delta : float;  (* max |Δ price| *)
  s_price_l2 : float;  (* l2 norm of the price delta vector *)
  s_worst_link : int;  (* link with the largest |Δ price| *)
  s_active_links : int;  (* links with a strictly positive price *)
  s_wf_rounds : int;  (* water-fill rounds (Maxmin.sparse_rounds) *)
  s_wf_level : float;  (* final fair-share fill level *)
  s_wf_saturated : int;  (* saturated (bottleneck) links this solve *)
  s_shard_max : float;  (* slowest price-update chunk, seconds *)
  s_shard_mean : float;  (* mean price-update chunk, seconds *)
}

let dummy_sample =
  {
    s_iter = 0;
    s_residual = 0.;
    s_price_delta = 0.;
    s_price_l2 = 0.;
    s_worst_link = -1;
    s_active_links = 0;
    s_wf_rounds = 0;
    s_wf_level = 0.;
    s_wf_saturated = 0;
    s_shard_max = 0.;
    s_shard_mean = 0.;
  }

let default_eps = [| 1e-2; 1e-4; 1e-6; 1e-8; 1e-10 |]

(* Sized for any realistic pool; [observe] clamps the chunk count. *)
let max_shard_chunks = 64

type t = {
  n_links : int;
  n_flows : int;
  ring : sample array;
  mutable head : int;  (* oldest buffered sample *)
  mutable len : int;
  mutable iters : int;
  final_residual : float array;  (* length 1; unboxed store per observe *)
  eps : float array;  (* descending thresholds of the iterations-to-ε ladder *)
  eps_iter : int array;  (* first iteration at or below eps.(k); -1 = never *)
  prev_prices : float array;  (* pre-step snapshots, filled by [begin_iter] *)
  prev_rates : float array;
  link_delta : float array;  (* |Δ price| per link, last observed iteration *)
  shard_times : float array;  (* per-chunk seconds, written via Shard ?timings *)
  trace : Trace.t option;  (* None = resolve Trace.default at emission *)
}

let create ?(capacity = 64) ?(eps = default_eps) ?trace ~n_links ~n_flows () =
  if capacity <= 0 then invalid_arg "Diag.create: capacity must be positive";
  {
    n_links;
    n_flows;
    ring = Array.make capacity dummy_sample;
    head = 0;
    len = 0;
    iters = 0;
    final_residual = Array.make 1 infinity;
    eps = Array.copy eps;
    eps_iter = Array.make (Array.length eps) (-1);
    prev_prices = Array.make n_links 0.;
    prev_rates = Array.make n_flows 0.;
    link_delta = Array.make n_links 0.;
    shard_times = Array.make max_shard_chunks 0.;
    trace;
  }

let shard_timings t = t.shard_times

let dims t = (t.n_links, t.n_flows)

let iterations t = t.iters

let begin_iter t ~prices ~rates =
  Array.blit prices 0 t.prev_prices 0 t.n_links;
  Array.blit rates 0 t.prev_rates 0 t.n_flows

let push t s =
  let cap = Array.length t.ring in
  if Int.equal t.len cap then begin
    t.ring.(t.head) <- s;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.ring.((t.head + t.len) mod cap) <- s;
    t.len <- t.len + 1
  end

let observe t ~prices ~rates ~wf_rounds ~wf_level ~wf_saturated ~shard_chunks =
  let price_delta = ref 0.
  and worst = ref (-1)
  and l2 = ref 0.
  and active = ref 0
  and residual = ref 0. in
  for l = 0 to t.n_links - 1 do
    let d = Float.abs (prices.(l) -. t.prev_prices.(l)) in
    t.link_delta.(l) <- d;
    l2 := !l2 +. (d *. d);
    if d > !price_delta then begin
      price_delta := d;
      worst := l
    end;
    if prices.(l) > 0. then incr active;
    let scale = Float.max (Float.abs t.prev_prices.(l)) 1e-30 in
    let r = d /. scale in
    if r > !residual then residual := r
  done;
  for i = 0 to t.n_flows - 1 do
    let d = Float.abs (rates.(i) -. t.prev_rates.(i)) in
    let scale = Float.max (Float.abs t.prev_rates.(i)) 1e-30 in
    let r = d /. scale in
    if r > !residual then residual := r
  done;
  let chunks = Stdlib.min shard_chunks (Array.length t.shard_times) in
  let smax = ref 0.
  and ssum = ref 0. in
  for k = 0 to chunks - 1 do
    let v = t.shard_times.(k) in
    if v > !smax then smax := v;
    ssum := !ssum +. v
  done;
  t.iters <- t.iters + 1;
  let iter = t.iters in
  let residual = !residual in
  t.final_residual.(0) <- residual;
  for k = 0 to Array.length t.eps - 1 do
    if t.eps_iter.(k) < 0 && residual <= t.eps.(k) then t.eps_iter.(k) <- iter
  done;
  push t
    {
      s_iter = iter;
      s_residual = residual;
      s_price_delta = !price_delta;
      s_price_l2 = sqrt !l2;
      s_worst_link = !worst;
      s_active_links = !active;
      s_wf_rounds = wf_rounds;
      s_wf_level = wf_level;
      s_wf_saturated = wf_saturated;
      s_shard_max = !smax;
      s_shard_mean = (if chunks > 0 then !ssum /. float_of_int chunks else 0.);
    };
  let tr = match t.trace with Some tr -> tr | None -> Trace.default () in
  if Trace.on tr Trace.XwiResidual then
    Trace.emit tr Trace.XwiResidual ~subject:0 ~time:(float_of_int iter)
      ~aux:!price_delta residual

let samples t =
  let cap = Array.length t.ring in
  List.init t.len (fun i -> t.ring.((t.head + i) mod cap))

let worst_links ?(n = 8) t =
  let rows = ref [] in
  for l = t.n_links - 1 downto 0 do
    if t.link_delta.(l) > 0. then rows := (l, t.link_delta.(l)) :: !rows
  done;
  let rows =
    (* Delta descending, link id ascending on ties: deterministic. *)
    List.sort
      (fun (l1, d1) (l2, d2) ->
        let c = Float.compare d2 d1 in
        if c <> 0 then c else Int.compare l1 l2)
      !rows
  in
  List.filteri (fun i _ -> i < n) rows

(* --- iterations-to-ε report ---------------------------------------- *)

type report = {
  r_iterations : int;
  r_final_residual : float;
  r_to_eps : (float * int) array;
}

let report t =
  {
    r_iterations = t.iters;
    r_final_residual =
      (if t.iters > 0 then t.final_residual.(0) else infinity);
    r_to_eps =
      Array.init (Array.length t.eps) (fun k -> (t.eps.(k), t.eps_iter.(k)));
  }

let int_num i = Json.Num (float_of_int i)

let report_json r =
  Json.Obj
    [
      ("iterations", int_num r.r_iterations);
      ("final_residual", Json.Num r.r_final_residual);
      ( "to_eps",
        Json.List
          (Array.fold_right
             (fun (eps, it) l -> Json.List [ Json.Num eps; int_num it ] :: l)
             r.r_to_eps []) );
    ]

let report_to_json r = Json.to_string (report_json r)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>xWI diagnostics: %d iterations, final residual %g@,"
    r.r_iterations r.r_final_residual;
  Array.iter
    (fun (eps, it) ->
      if it >= 0 then
        Format.fprintf ppf "  residual <= %.0e after %d iterations@," eps it
      else Format.fprintf ppf "  residual <= %.0e never reached@," eps)
    r.r_to_eps;
  Format.fprintf ppf "@]"

(* --- postmortem dump ------------------------------------------------ *)

let sample_json s =
  Json.Obj
    [
      ("kind", Json.Str "iter");
      ("iter", int_num s.s_iter);
      ("residual", Json.Num s.s_residual);
      ("price_delta", Json.Num s.s_price_delta);
      ("price_l2", Json.Num s.s_price_l2);
      ("worst_link", int_num s.s_worst_link);
      ("active_links", int_num s.s_active_links);
      ("waterfill_rounds", int_num s.s_wf_rounds);
      ("waterfill_level", Json.Num s.s_wf_level);
      ("saturated_links", int_num s.s_wf_saturated);
      ("shard_max", Json.Num s.s_shard_max);
      ("shard_mean", Json.Num s.s_shard_mean);
    ]

let dump ?final_residual t ~converged ~path =
  let r = report t in
  let final =
    match final_residual with Some f -> f | None -> r.r_final_residual
  in
  let meta =
    Json.Obj
      [
        ("kind", Json.Str "meta");
        ("converged", Json.Bool converged);
        ("iterations", int_num r.r_iterations);
        ("final_residual", Json.Num final);
        ("n_links", int_num t.n_links);
        ("n_flows", int_num t.n_flows);
      ]
  in
  let worst =
    Json.Obj
      [
        ("kind", Json.Str "worst_links");
        ( "links",
          Json.List
            (List.map (fun (l, d) -> Json.List [ int_num l; Json.Num d ]) (worst_links t)) );
      ]
  in
  let to_eps = Json.Obj [ ("kind", Json.Str "to_eps"); ("report", report_json r) ] in
  let lines = (meta :: List.map sample_json (samples t)) @ [ worst; to_eps ] in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          output_string oc (Json.to_string line);
          output_char oc '\n')
        lines)

(* --- process-wide configuration (the [--diag] switch) --------------- *)

type config = {
  c_ring : int;  (* ring capacity for auto-attached diags *)
  c_dir : string;  (* directory receiving postmortem JSONL files *)
  c_max_postmortems : int;  (* cap on files written per configuration *)
}

let default_config ~dir = { c_ring = 64; c_dir = dir; c_max_postmortems = 16 }

let config_ref : config option Atomic.t = Atomic.make None

let written = Atomic.make 0

let configure c =
  Atomic.set config_ref c;
  Atomic.set written 0

let configured () = Atomic.get config_ref

let postmortems_written () = Atomic.get written

let attach ~n_links ~n_flows =
  match configured () with
  | None -> None
  | Some c -> Some (create ~capacity:c.c_ring ~n_links ~n_flows ())

let dump_auto ?final_residual t ~converged =
  match configured () with
  | None -> ()
  | Some c ->
    let n = Atomic.get written in
    if n < c.c_max_postmortems then begin
      Atomic.set written (n + 1);
      let path =
        Filename.concat c.c_dir (Printf.sprintf "xwi_postmortem_%04d.jsonl" n)
      in
      dump ?final_residual t ~converged ~path
    end
