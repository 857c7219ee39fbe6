module Metrics = Nf_util.Metrics
module Profile = Nf_util.Profile
module Gcstats = Nf_util.Gcstats
module Fheap = Nf_util.Fheap
module Fcmp = Nf_util.Fcmp

type cat = Profile.cat

(* The event queue is a calendar queue (R. Brown, "Calendar Queues",
   CACM 1988) in front of an overflow heap; dispatch order is exactly
   (time, then scheduling order).

   The wheel has [n_buckets] buckets of [bucket_width] = 2^-26 s
   (~14.9 ns) each; absolute bucket [i] holds keys k with
   [truncate (k *. 2^26) = i], and bucket [i] lives in slot
   [i land bucket_mask]. Scaling by a power of two is exact and
   monotone, so bucket order never disagrees with time order. The
   window is the [n_buckets] absolute buckets from the cursor on:
   [cursor * w, (cursor + n_buckets) * w), ~15.3 us. Both constants
   come from [packet_websearch]'s scheduling delays (seed 1, every
   16th schedule sampled): p50 1.2 us, p99 3.2 us, and 0.23% of
   schedules past the window, nearly all timers of 1 ms and more. The
   span covers the packet delays with ~5x headroom, so the overflow
   sees timers and little else. At this width 0.15 empty buckets are
   skipped per pop; 58% of schedules land ahead of a bucket's tail and
   walk its short list. The other shapes tried, 1024 x 2^-25 s,
   2048 x 2^-27 s and 4096 x 2^-28 s, measured within noise of this
   one on [op_p50_ms].

   A bucket is a singly linked list, sorted by (key, seq), threaded
   through a struct-of-arrays node pool ([keys], [cats], [acts], [next];
   free nodes are chained through [next]). A new event carries the
   largest seq so far, so it goes after every key <= its own: the seq is
   implied by list position and is not stored.

   An event at or past the window's end (+inf included) takes a node
   from the same pool, and the node's index goes to the [overflow]
   Fheap, whose FIFO tie-break is scheduling order among its own
   events; its [next] link is unused while it waits there. Pop takes
   the smaller of the first non-empty bucket's head and the overflow's
   top, the overflow on a key tie: the window's end never moves back,
   so an overflow event with key k was scheduled when the end was <= k,
   before any wheel event with key k, which was scheduled when the end
   was > k.

   Invariant: every wheel key's bucket is in [cursor, cursor +
   n_buckets), and the cursor is at most the bucket of [now] (a pop
   moves it to the popped key's bucket at most, keys are >= [now], and
   the clock never moves back). The cursor only moves forward, so the
   scan past empty buckets is amortised O(1) per event: one pop scans
   at most [n_buckets] buckets, and all pops together at most the
   cursor's total advance plus [n_buckets] per overflow pop made while
   the wheel is non-empty (such a pop leaves the cursor behind the
   wheel's head). When the wheel is empty, popping from the overflow
   jumps the cursor to the popped key's bucket in O(1), so idle
   stretches cost no scan. *)

let n_buckets = 1024

let bucket_mask = n_buckets - 1

let bucket_scale = 0x1p26

let bucket_width = 0x1p-26

(* The cursor never jumps to a key at or past 2^26 s (~777 days of
   simulated time): below it [cursor + n_buckets] converts to a float
   exactly and [key *. bucket_scale] fits an int. Later events all take
   the overflow, which orders them just as well. *)
let jump_limit = 0x1p26

(* The clock and the queue's float cells live in an all-float record:
   the compiler stores its fields unboxed, so advancing the clock per
   dispatched event neither boxes the time nor goes through the write
   barrier (a [mutable float] field of the mixed record [t] would do
   both). [staged] hands a key to the out-of-line overflow push without
   boxing it as an argument. *)
type clock = {
  mutable time : float;
  mutable window_end : float;  (* (cursor + n_buckets) * bucket_width *)
  mutable overflow_min : float;  (* top key of [overflow]; +inf if empty *)
  mutable staged : float;
}

type t = {
  clock : clock;
  heads : int array;  (* per slot: first node, or -1 if empty *)
  tails : int array;  (* per slot: last node (stale while empty) *)
  mutable keys : float array;  (* per node *)
  mutable cats : int array;
  mutable acts : (unit -> unit) array;
  mutable next : int array;  (* next node in the bucket or free list *)
  mutable free : int;  (* first free node, or -1 *)
  mutable cursor : int;  (* absolute bucket at the window's start *)
  mutable in_wheel : int;
  overflow : Fheap.t;  (* node indices, keyed by event time *)
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
    ~help:"High-water mark of the pending events (sampled)"
    "nf_engine_heap_depth_max"

let cat = Profile.intern

let default_cat = cat "event"

let noop () = ()

let initial_nodes = 64

let create () =
  {
    clock =
      {
        time = 0.;
        window_end = float_of_int n_buckets *. bucket_width;
        overflow_min = infinity;
        staged = 0.;
      };
    heads = Array.make n_buckets (-1);
    tails = Array.make n_buckets (-1);
    keys = [||];
    cats = [||];
    acts = [||];
    next = [||];
    free = -1;
    cursor = 0;
    in_wheel = 0;
    overflow = Fheap.create ~capacity:16 ();
    stopped = false;
    processed = 0;
    unsettled = 0;
    scheduled = 0;
  }

let[@inline] now t = t.clock.time

let pending t = t.in_wheel + Fheap.length t.overflow

(* The heap-depth gauge is a diagnostic high-water mark; updating it per
   scheduled event costs an int->float conversion plus a compare even when
   nobody reads metrics, so it is sampled every 2^8 schedules instead. *)
let depth_sample_mask = 0xFF

(* The error, growth, overflow and sampling branches of the scheduling
   primitives are out-of-line cold functions, so the [@inline] fast paths
   stay small enough to be inlined at every call site: the float
   [at]/[delay] then stays in a register across the library boundary
   instead of being boxed for the call. *)
let[@inline never] bad_time t at =
  if Float.is_nan at then invalid_arg "Sim.schedule: NaN time"
  else
    invalid_arg
      (Printf.sprintf "Sim.schedule: event in the past (at=%g, now=%g)" at
         t.clock.time)

let[@inline never] bad_delay delay =
  if Float.is_nan delay then invalid_arg "Sim.schedule_after: NaN delay"
  else invalid_arg "Sim.schedule_after: negative delay"

let[@inline never] sample_heap_depth t =
  Metrics.max_gauge m_heap_depth (float_of_int (pending t))

(* Doubles the node pool, which starts empty (it is only called with no
   free node), and returns the first new node. *)
let[@inline never] grow_pool t =
  let cap = Array.length t.keys in
  let n = Int.max initial_nodes (2 * cap) in
  let keys = Array.make n 0. in
  Array.blit t.keys 0 keys 0 cap;
  t.keys <- keys;
  let cats = Array.make n 0 in
  Array.blit t.cats 0 cats 0 cap;
  t.cats <- cats;
  let acts = Array.make n noop in
  Array.blit t.acts 0 acts 0 cap;
  t.acts <- acts;
  let next = Array.init n (fun i -> if i + 1 < n then i + 1 else -1) in
  Array.blit t.next 0 next 0 cap;
  t.next <- next;
  t.free <- cap;
  cap

(* Links node [n] into non-empty slot [b] whose tail key is greater than
   [n]'s key: after the last node with a key <= [n]'s. *)
let[@inline never] insert_sorted t b n =
  let keys = t.keys and next = t.next in
  let key = keys.(n) in
  let h = t.heads.(b) in
  if key < keys.(h) then begin
    next.(n) <- h;
    t.heads.(b) <- n
  end
  else begin
    let p = ref h in
    while keys.(next.(!p)) <= key do
      p := next.(!p)
    done;
    next.(n) <- next.(!p);
    next.(!p) <- n
  end

let[@inline never] push_overflow t ~cat action =
  let clock = t.clock in
  let key = clock.staged in
  let n = if t.free >= 0 then t.free else grow_pool t in
  t.free <- t.next.(n);
  t.keys.(n) <- key;
  t.cats.(n) <- cat;
  t.acts.(n) <- action;
  Fheap.push t.overflow ~key n;
  if key < clock.overflow_min then clock.overflow_min <- key

let[@nf.hot] [@inline] schedule_cat t ~cat ~at action =
  let clock = t.clock in
  (* Also rejects NaN, which compares false. *)
  if not (at >= clock.time) then bad_time t at;
  if at < clock.window_end then begin
    let n = if t.free >= 0 then t.free else grow_pool t in
    let next = t.next and keys = t.keys in
    t.free <- next.(n);
    keys.(n) <- at;
    t.cats.(n) <- cat;
    (t.acts.(n) <- action)
    [@nf.allow
      "hot-barrier -- handlers are mostly preallocated, old closures; \
       replacing the closure slot with an int handle measured no gain"];
    next.(n) <- -1;
    let b = int_of_float (at *. bucket_scale) land bucket_mask in
    let heads = t.heads and tails = t.tails in
    if heads.(b) < 0 then begin
      heads.(b) <- n;
      tails.(b) <- n
    end
    else begin
      let tl = tails.(b) in
      if at >= keys.(tl) then begin
        next.(tl) <- n;
        tails.(b) <- n
      end
      else insert_sorted t b n
    end;
    t.in_wheel <- t.in_wheel + 1
  end
  else begin
    clock.staged <- at;
    push_overflow t ~cat action
  end;
  let s = t.scheduled + 1 in
  t.scheduled <- s;
  if s land depth_sample_mask = 0 then sample_heap_depth t

let[@nf.hot] [@inline] schedule_after_cat t ~cat ~delay action =
  if not (delay >= 0.) then bad_delay delay;
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

let[@inline] set_cursor t c =
  t.cursor <- c;
  t.clock.window_end <- float_of_int (c + n_buckets) *. bucket_width

(* Removes the overflow's top, whose key is [key]. With the wheel empty
   the cursor jumps to [key]'s bucket; otherwise [key] is at most the
   wheel head's key, so its bucket is in the window already. *)
let[@inline] drop_overflow t key =
  let ov = t.overflow and clock = t.clock in
  Fheap.drop ov;
  clock.overflow_min <-
    (if Fheap.is_empty ov then infinity else Fheap.top_key ov);
  if key < jump_limit then begin
    let c = int_of_float (key *. bucket_scale) in
    if c > t.cursor then set_cursor t c
  end

let[@inline] dispatch c action profiling gcing =
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

(* The dispatch loop proper. Dispatched events are counted in
   [t.unsettled] and settled into [processed] and the events metric once
   per [run]. *)
let[@nf.hot] run_loop t horizon profiling gcing =
  let clock = t.clock and ov = t.overflow and heads = t.heads in
  let continue = ref true in
  while !continue && not t.stopped do
    (* The wheel's head: the first node of the first non-empty bucket at
       or after the cursor (one exists within [n_buckets] steps). *)
    let b = ref t.cursor and n = ref (-1) in
    let key =
      if t.in_wheel > 0 then begin
        while heads.(!b land bucket_mask) < 0 do
          incr b
        done;
        n := heads.(!b land bucket_mask);
        t.keys.(!n)
      end
      else infinity
    in
    let from_overflow =
      if !n >= 0 then clock.overflow_min <= key else not (Fheap.is_empty ov)
    in
    let key = if from_overflow then clock.overflow_min else key in
    if !n < 0 && not from_overflow then begin
      if Float.is_finite horizon then
        clock.time <- Fcmp.fmax clock.time horizon;
      continue := false
    end
    else if key > horizon then begin
      clock.time <- Fcmp.fmax clock.time horizon;
      continue := false
    end
    else begin
      let n =
        if from_overflow then begin
          let n = Fheap.top ov in
          drop_overflow t key;
          n
        end
        else begin
          let n = !n in
          heads.(!b land bucket_mask) <- t.next.(n);
          t.in_wheel <- t.in_wheel - 1;
          if !b <> t.cursor then set_cursor t !b;
          n
        end
      in
      let acts = t.acts in
      let action = acts.(n) in
      (* Clearing the slot lets a fired one-shot closure be collected. *)
      (acts.(n) <- noop)
      [@nf.allow
        "hot-barrier -- stores a static closure so the fired handler is \
         not kept alive by a free node"];
      t.next.(n) <- t.free;
      t.free <- n;
      let c = t.cats.(n) in
      clock.time <- key;
      t.unsettled <- t.unsettled + 1;
      dispatch c action profiling gcing
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
