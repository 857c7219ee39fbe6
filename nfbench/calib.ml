(* Reference time: op times with the host's speed taken out.

   On a shared VM the same work takes up to 40% more CPU time while the
   host is busy (another guest on the core's other hyperthread or in
   its caches), and such a state lasts from seconds to minutes, longer
   than a run. Timing more work in a run does not average it away: the
   two halves of a 30 s run spread as widely over ten seeds as whole
   runs did. So one pass of a fixed loop runs after every op, off the
   op clock, and every op-derived time is reported in reference time:
   the CPU time the op would take on a machine where one pass takes
   [reference] seconds.

   The loop is the benchmark's own code and calls no library of the
   repository, so no change to the program moves it: four independent
   multiply-add streams over 256 KB, bound by the core and its L2. A
   busy host slows it by sharing the core, which every workload here
   feels. A loop of dependent random reads and writes over 4 MB was
   tried too: it tracked a busy host's caches, but its speed swung with
   them far more than the packet simulator's did. Op [i] is scaled by
   the median of the passes after ops [i - window] to [i + window]: the
   host's state changes over seconds, an op takes milliseconds. *)

let reference = 1e-3

let window = 5

let words = 1 lsl 15

let sweeps = 40

let cells = Array.make words 1.

(* One pass, in CPU seconds. *)
let pass () =
  let t0 = Spans.now () in
  let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
  for _ = 1 to sweeps do
    let j = ref 0 in
    while !j < words do
      a0 := !a0 +. (Array.unsafe_get cells !j *. 1.0000001);
      a1 := !a1 +. (Array.unsafe_get cells (!j + 1) *. 0.9999999);
      a2 := !a2 +. (Array.unsafe_get cells (!j + 2) *. 1.0000002);
      a3 := !a3 +. (Array.unsafe_get cells (!j + 3) *. 0.9999998);
      j := !j + 4
    done
  done;
  (* Keeps the sums live; the cell stays near 1. *)
  cells.(0) <- 1. +. ((!a0 +. !a1 +. !a2 +. !a3) *. 1e-15);
  Spans.now () -. t0

(* The passes of one run, one after each op. *)
type t = { mutable times : float array; mutable n : int }

let create () = { times = Array.make 1024 0.; n = 0 }

let count t = t.n

let sample t =
  if t.n = Array.length t.times then begin
    let grown = Array.make (2 * t.n) 0. in
    Array.blit t.times 0 grown 0 t.n;
    t.times <- grown
  end;
  t.times.(t.n) <- pass ();
  t.n <- t.n + 1

(* Median pass around pass [i]. *)
let local t i =
  if t.n = 0 then invalid_arg "Calib.local: no pass";
  let i = Stdlib.max 0 (Stdlib.min (t.n - 1) i) in
  let lo = Stdlib.max 0 (i - window) and hi = Stdlib.min (t.n - 1) (i + window) in
  Nf_util.Stats.median (Array.sub t.times lo (hi - lo + 1))

(* [dt] CPU seconds measured next to pass [i], in reference seconds. *)
let scale t i dt = dt *. reference /. local t i

(* Op times in reference seconds; op [i] was followed by pass [i]. *)
let reference_times t dts =
  if Array.length dts <> t.n then invalid_arg "Calib.reference_times: one pass per op";
  Array.mapi (scale t) dts

let median_pass t = Nf_util.Stats.median (Array.sub t.times 0 t.n)
