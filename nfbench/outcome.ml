(* What one benchmark run reports: the result object (correct,
   attempted, failed, metrics by name with unit) plus the deterministic
   fingerprint and the reasons any correctness check failed. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;  (* ops that did not deliver a certified result *)
  problems : string list;  (* failed correctness checks; empty when correct *)
  metrics : metric list;
  fingerprint : (string * int) list;
      (* exact counts that must repeat on every run of the same seed *)
}

let metric name unit_ value = { name; value; unit_ }

let correct t = List.is_empty t.problems

(* The result line. [Sjson] prints every float with all 17
   significant digits; a non-finite value has no JSON form and is a
   benchmark bug. *)
let to_json t =
  let num v = Nf_serve.Sjson.Num v in
  let metric m =
    if not (Float.is_finite m.value) then invalid_arg ("Outcome.to_json: non-finite " ^ m.name);
    (m.name, Nf_serve.Sjson.Obj [ ("value", num m.value); ("unit", Nf_serve.Sjson.Str m.unit_) ])
  in
  Nf_serve.Sjson.to_string
    (Nf_serve.Sjson.Obj
       [
         ("correct", Nf_serve.Sjson.Bool (correct t));
         ("attempted", num (float_of_int t.attempted));
         ("failed", num (float_of_int t.failed));
         ("metrics", Nf_serve.Sjson.Obj (List.map metric t.metrics));
       ])

let fingerprint_line t =
  "fingerprint "
  ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) t.fingerprint)

(* Sample helpers. *)

let median xs = Nf_util.Stats.median xs

let sum xs = Array.fold_left ( +. ) 0. xs

(* Nearest-rank percentile: an actual sample, so p99 of 1000 samples is
   the 990th smallest and ten samples lie beyond it. *)
let percentile xs p =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* setup_s. One sample is the CPU time of [batch] set-ups back to back,
   divided by the batch: some 50 ms of work, well above the clock's µs
   steps and a scheduler tick. Each sample starts from a fully collected
   heap and its garbage is collected off the clock, so the ops that follow
   do not pay for it. The run's own set-up is the first sample; the rest
   repeat the set-up between ops, one each time the run's progress (its
   share of the work done, which the workload reports) passes another
   [1 / samples], so they meet the machine at as many moments of the run
   as the op times do, and at the same points of the work on every run
   of a seed whatever the host's speed. Each sample is scaled to
   reference time by the calibration passes around it (see [Calib]);
   [setup_s] is their median. *)
type 'a setup = {
  f : unit -> 'a;
  batch : int;
  samples : int;
  calib : Calib.t;  (* one pass after every op *)
  mutable times : (float * int) list;  (* seconds per set-up, pass it sits next to *)
}

let time_batch ~batch f =
  Gc.full_major ();
  let t0 = Spans.now () in
  let r = ref (f ()) in
  for _ = 2 to batch do
    r := f ()
  done;
  let dt = (Spans.now () -. t0) /. float_of_int batch in
  (dt, !r)

(* The run's set-up: its result, and the sampler for the rest. *)
let setup ~samples ~batch f =
  let dt, r = time_batch ~batch f in
  Gc.full_major ();
  ({ f; batch; samples; calib = Calib.create (); times = [ (dt, 0) ] }, r)

let sample s =
  let dt, _ = time_batch ~batch:s.batch s.f in
  Gc.full_major ();
  s.times <- (dt, Calib.count s.calib - 1) :: s.times

(* After every op, off its clock: a calibration pass, and the set-up
   samples due by [progress], in [0, 1]. *)
let tick s ~progress =
  Calib.sample s.calib;
  while
    List.length s.times < s.samples
    && progress *. float_of_int s.samples >= float_of_int (List.length s.times)
  do
    sample s
  done

(* After the last op: the samples still missing, then the median. *)
let setup_s s =
  if Calib.count s.calib = 0 then Calib.sample s.calib;
  while List.length s.times < s.samples do
    sample s
  done;
  median (Array.of_list (List.map (fun (dt, i) -> Calib.scale s.calib i dt) s.times))

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)
