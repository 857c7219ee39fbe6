module Metrics = Nf_util.Metrics
module Profile = Nf_util.Profile
module Gcstats = Nf_util.Gcstats
module Fheap = Nf_util.Fheap

type cat = Profile.cat

type t = {
  queue : (unit -> unit) Fheap.t;
  mutable clock : float;
  mutable stopped : bool;
  mutable processed : int;
  mutable scheduled : int;
}

let m_events =
  Metrics.counter Metrics.global
    ~help:"Events dispatched by the discrete-event loop"
    "nf_engine_events_total"

let m_heap_depth =
  Metrics.gauge Metrics.global
    ~help:"High-water mark of the event heap (sampled)"
    "nf_engine_heap_depth_max"

let cat = Profile.intern

let default_cat = cat "event"

let noop () = ()

let create () =
  {
    queue = Fheap.create ~capacity:64 ~dummy:noop ();
    clock = 0.;
    stopped = false;
    processed = 0;
    scheduled = 0;
  }

let now t = t.clock

(* The heap-depth gauge is a diagnostic high-water mark; updating it per
   scheduled event costs an int->float conversion plus a compare even when
   nobody reads metrics, so it is sampled every 2^8 schedules instead. *)
let depth_sample_mask = 0xFF

let[@nf.hot] schedule_cat t ~cat ~at action =
  if at < t.clock then
    invalid_arg
      ((Printf.sprintf "Sim.schedule: event in the past (at=%g, now=%g)" at
          t.clock) [@nf.allow "hot-alloc"]);
  Fheap.push t.queue ~key:at ~aux:cat action;
  let s = t.scheduled + 1 in
  t.scheduled <- s;
  if s land depth_sample_mask = 0 then
    Metrics.max_gauge m_heap_depth (float_of_int (Fheap.length t.queue))

let[@nf.hot] schedule_after_cat t ~cat ~delay action =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  schedule_cat t ~cat ~at:(t.clock +. delay) action

let periodic_cat t ~cat ?start ~interval action =
  if interval <= 0. then invalid_arg "Sim.periodic: interval must be positive";
  let first = match start with Some s -> s | None -> t.clock +. interval in
  let rec fire () =
    action ();
    schedule_after_cat t ~cat ~delay:interval fire
  in
  schedule_cat t ~cat ~at:first fire

let cat_of_opt = function None -> default_cat | Some s -> Profile.intern s

let schedule t ?cat ~at action = schedule_cat t ~cat:(cat_of_opt cat) ~at action

let schedule_after t ?cat ~delay action =
  schedule_after_cat t ~cat:(cat_of_opt cat) ~delay action

let periodic t ?cat ?start ~interval action =
  periodic_cat t ~cat:(cat_of_opt cat) ?start ~interval action

(* Comparison-only [Float.max], the NUM core's [fmax] (see
   [Nf_num.Xwi_core.fmax]): bit-identical to the stdlib on every non-NaN
   input, ±0 included, NaN-propagating like it, and free of its
   [caml_signbit_float] C calls. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if Float.is_nan x then x
  else if Float.is_nan y then y
  else if Float.equal x 0. then x +. y
  else x

(* The dispatch loop proper, split out of [run] so it can carry [@nf.hot]
   (the Fun.protect closure in [run] is per-run, not per-event, and stays
   outside the annotation). *)
let[@nf.hot] run_loop t horizon profiling gcing dispatched =
  let q = t.queue in
  let continue = ref true in
  while !continue && not t.stopped do
    if Fheap.is_empty q then begin
      if Float.is_finite horizon then
        t.clock <- fmax t.clock horizon;
      continue := false
    end
    else begin
      let time = Fheap.top_key q in
      if time > horizon then begin
        t.clock <- horizon;
        continue := false
      end
      else begin
        let action = Fheap.top q in
        let c = Fheap.top_aux q in
        Fheap.drop q;
        t.clock <- time;
        incr dispatched;
        if profiling then
          if gcing then begin
            let b0 = Gcstats.bytes () in
            let t0 = Profile.now () in
            action ();
            Profile.record_cat c (Profile.now () -. t0);
            Gcstats.record c (Gcstats.bytes () -. b0)
          end
          else begin
            let t0 = Profile.now () in
            action ();
            Profile.record_cat c (Profile.now () -. t0)
          end
        else action ()
      end
    end
  done

let run ?until t =
  t.stopped <- false;
  let horizon = match until with Some u -> u | None -> infinity in
  (* Hoisted out of the dispatch loop: toggling profiling from inside a
     handler takes effect on the next [run]. Event/processed counters are
     batched and settled once per run (also on an escaping exception). *)
  let profiling = Profile.enabled () in
  let gcing = profiling && Gcstats.enabled () in
  let dispatched = ref 0 in
  Fun.protect ~finally:(fun () ->
      t.processed <- t.processed + !dispatched;
      Metrics.add m_events !dispatched)
  @@ fun () -> run_loop t horizon profiling gcing dispatched

let stop t = t.stopped <- true

let events_processed t = t.processed

let pending t = Fheap.length t.queue
