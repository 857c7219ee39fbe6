module Json = Nf_util.Json
module Trace = Nf_util.Trace

(* Opt-in per-iteration solver instrumentation. A [t] is attached to one
   [Xwi_core.state]; the solver snapshots prices/rates before each step
   ([begin_iter]) and hands the post-step arrays plus the water-fill
   statistics to [observe], which derives residual norms, keeps a
   ring of the last K iteration samples, tracks first-iteration-to-ε, and
   emits [XwiResidual] trace events. Everything here is off the hot path
   by construction: a state without a diag pays one [match] per step. *)

type sample = {
  s_iter : int;  (* 1-based iteration index within this state's life *)
  s_residual : float;  (* max relative price/rate change over the step *)
  s_price_delta : float;  (* max |Δ price| *)
  s_price_l2 : float;  (* l2 norm of the price delta vector *)
  s_worst_link : int;  (* link with the largest |Δ price| *)
  s_active_links : int;  (* links with a strictly positive price *)
  s_wf_rounds : int;  (* water-fill rounds (Maxmin.sparse_rounds) *)
  s_wf_level : float;  (* final fair-share fill level *)
  s_wf_saturated : int;  (* saturated (bottleneck) links this solve *)
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
  }

(* Descending thresholds of the iterations-to-ε ladder. *)
let eps = [| 1e-2; 1e-4; 1e-6; 1e-8; 1e-10 |]

type t = {
  n_links : int;
  n_flows : int;
  ring : sample array;
  mutable head : int;  (* oldest buffered sample *)
  mutable len : int;
  mutable iters : int;
  final_step_change : float array;  (* length 1; unboxed store per observe *)
  eps_iter : int array;  (* first iteration at or below eps.(k); -1 = never *)
  prev_prices : float array;  (* pre-step snapshots, filled by [begin_iter] *)
  prev_rates : float array;
  link_delta : float array;  (* |Δ price| per link, last observed iteration *)
}

(* Ring capacity: the iteration samples a postmortem keeps. *)
let capacity = 64

let create ~n_links ~n_flows =
  {
    n_links;
    n_flows;
    ring = Array.make capacity dummy_sample;
    head = 0;
    len = 0;
    iters = 0;
    final_step_change = Array.make 1 infinity;
    eps_iter = Array.make (Array.length eps) (-1);
    prev_prices = Array.make n_links 0.;
    prev_rates = Array.make n_flows 0.;
    link_delta = Array.make n_links 0.;
  }

let begin_iter t ~prices ~rates =
  Array.blit prices 0 t.prev_prices 0 t.n_links;
  Array.blit rates 0 t.prev_rates 0 t.n_flows

let push t s =
  if Int.equal t.len capacity then begin
    t.ring.(t.head) <- s;
    t.head <- (t.head + 1) mod capacity
  end
  else begin
    t.ring.((t.head + t.len) mod capacity) <- s;
    t.len <- t.len + 1
  end

let observe t ~prices ~rates ~wf_rounds ~wf_level ~wf_saturated =
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
  t.iters <- t.iters + 1;
  let iter = t.iters in
  let residual = !residual in
  t.final_step_change.(0) <- residual;
  for k = 0 to Array.length eps - 1 do
    if t.eps_iter.(k) < 0 && residual <= eps.(k) then t.eps_iter.(k) <- iter
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
    };
  let tr = Trace.default () in
  if Trace.on tr Trace.XwiResidual then
    Trace.emit tr Trace.XwiResidual ~subject:0 ~time:(float_of_int iter)
      ~aux:!price_delta residual

let samples t = List.init t.len (fun i -> t.ring.((t.head + i) mod capacity))

(* The 8 links with the largest |Δ price| in the last observed
   iteration. *)
let worst_links t =
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
  List.filteri (fun i _ -> i < 8) rows

(* --- postmortem dump ------------------------------------------------ *)

let int_num i = Json.Num (float_of_int i)

(* The last iteration's relative price/rate change; [infinity] before
   the first. *)
let final_step_change t =
  if t.iters > 0 then t.final_step_change.(0) else infinity

(* The iterations-to-ε report: each threshold with the first iteration
   at or below it (-1 if never reached). *)
let report_json t =
  Json.Obj
    [
      ("iterations", int_num t.iters);
      ("final_step_change", Json.Num (final_step_change t));
      ( "to_eps",
        Json.List
          (List.init (Array.length eps) (fun k ->
               Json.List [ Json.Num eps.(k); int_num t.eps_iter.(k) ])) );
    ]

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
    ]

(* The postmortem as JSONL: a [meta] line ([final_residual], e.g. the
   KKT residual, else the last step change), one [iter] line per ring
   sample (oldest first), a [worst_links] line and a [to_eps] line. *)
let dump ?final_residual:final t ~converged ~path =
  let final = match final with Some f -> f | None -> final_step_change t in
  let meta =
    Json.Obj
      [
        ("kind", Json.Str "meta");
        ("converged", Json.Bool converged);
        ("iterations", int_num t.iters);
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
  let to_eps = Json.Obj [ ("kind", Json.Str "to_eps"); ("report", report_json t) ] in
  let lines = (meta :: List.map sample_json (samples t)) @ [ worst; to_eps ] in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          output_string oc (Json.to_string line);
          output_char oc '\n')
        lines)

(* --- process-wide configuration (the [--diag] switch) --------------- *)

let max_postmortems = 16  (* cap on files written per configuration *)

(* The directory receiving postmortem JSONL files; None = unconfigured. *)
let dir_ref : string option Atomic.t = Atomic.make None

let written = Atomic.make 0

let configure dir =
  Atomic.set dir_ref dir;
  Atomic.set written 0

let postmortems_written () = Atomic.get written

let attach ~n_links ~n_flows =
  match Atomic.get dir_ref with
  | None -> None
  | Some _ -> Some (create ~n_links ~n_flows)

let dump_auto ?final_residual t ~converged =
  match Atomic.get dir_ref with
  | None -> ()
  | Some dir ->
    let n = Atomic.get written in
    if n < max_postmortems then begin
      Atomic.set written (n + 1);
      let path =
        Filename.concat dir (Printf.sprintf "xwi_postmortem_%04d.jsonl" n)
      in
      dump ?final_residual t ~converged ~path
    end
