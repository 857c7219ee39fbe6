module Metrics = Nf_util.Metrics
module Profile = Nf_util.Profile
module Gcstats = Nf_util.Gcstats
module Fheap = Nf_util.Fheap
module Fcmp = Nf_util.Fcmp

type cat = Profile.cat

(* The clock lives in an all-float record: the compiler stores its field
   unboxed, so advancing it per dispatched event neither boxes the time
   nor goes through the write barrier (a [mutable float] field of the
   mixed record [t] would do both). *)
type clock = { mutable time : float }

type t = {
  queue : (unit -> unit) Fheap.t;
  clock : clock;
  mutable stopped : bool;
  mutable processed : int;
  mutable unsettled : int;  (* dispatched, not yet added to [processed] *)
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
    clock = { time = 0. };
    stopped = false;
    processed = 0;
    unsettled = 0;
    scheduled = 0;
  }

let[@inline] now t = t.clock.time

(* The heap-depth gauge is a diagnostic high-water mark; updating it per
   scheduled event costs an int->float conversion plus a compare even when
   nobody reads metrics, so it is sampled every 2^8 schedules instead. *)
let depth_sample_mask = 0xFF

(* The error and sampling branches of the scheduling primitives are
   out-of-line cold functions, so the [@inline] fast paths stay small
   enough to be inlined at every call site: the float [at]/[delay] then
   stays in a register across the library boundary instead of being boxed
   for the call. *)
let[@inline never] schedule_in_past t at =
  invalid_arg
    (Printf.sprintf "Sim.schedule: event in the past (at=%g, now=%g)" at
       t.clock.time)

let[@inline never] negative_delay () =
  invalid_arg "Sim.schedule_after: negative delay"

let[@inline never] sample_heap_depth t =
  Metrics.max_gauge m_heap_depth (float_of_int (Fheap.length t.queue))

let[@nf.hot] [@inline] schedule_cat t ~cat ~at action =
  if at < t.clock.time then schedule_in_past t at;
  Fheap.push t.queue ~key:at ~aux:cat action;
  let s = t.scheduled + 1 in
  t.scheduled <- s;
  if s land depth_sample_mask = 0 then sample_heap_depth t

let[@nf.hot] [@inline] schedule_after_cat t ~cat ~delay action =
  if delay < 0. then negative_delay ();
  schedule_cat t ~cat ~at:(t.clock.time +. delay) action

let periodic_cat t ~cat ?start ~interval action =
  if interval <= 0. then invalid_arg "Sim.periodic: interval must be positive";
  let first = match start with Some s -> s | None -> t.clock.time +. interval in
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

(* The dispatch loop proper. Dispatched events are counted in
   [t.unsettled] and settled into [processed] and the events metric once
   per [run]. *)
let[@nf.hot] run_loop t horizon profiling gcing =
  let q = t.queue and clock = t.clock in
  let continue = ref true in
  while !continue && not t.stopped do
    if Fheap.is_empty q then begin
      if Float.is_finite horizon then
        clock.time <- Fcmp.fmax clock.time horizon;
      continue := false
    end
    else begin
      let time = Fheap.top_key q in
      if time > horizon then begin
        clock.time <- horizon;
        continue := false
      end
      else begin
        let action = Fheap.top q in
        let c = Fheap.top_aux q in
        Fheap.drop q;
        clock.time <- time;
        t.unsettled <- t.unsettled + 1;
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

let settle t =
  let n = t.unsettled in
  t.unsettled <- 0;
  t.processed <- t.processed + n;
  Metrics.add m_events n

let run ?until t =
  t.stopped <- false;
  let horizon = match until with Some u -> u | None -> infinity in
  (* Hoisted out of the dispatch loop: toggling profiling from inside a
     handler takes effect on the next [run]. Event/processed counters are
     batched and settled once per run (also on an escaping exception),
     without a per-run closure: [run] itself allocates nothing. *)
  let profiling = Profile.enabled () in
  let gcing = profiling && Gcstats.enabled () in
  match run_loop t horizon profiling gcing with
  | () -> settle t
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    settle t;
    Printexc.raise_with_backtrace e bt

let stop t = t.stopped <- true

let events_processed t = t.processed

let pending t = Fheap.length t.queue
