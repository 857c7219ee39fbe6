(* In-memory span recorder for the traced runs.

   A span is one call into a layer, recorded from the benchmark's own
   code: its kind, the span that was open when it started (its parent),
   the op it belongs to, start and end in process CPU time ([now]), and
   the bytes the current domain allocated in between. Spans live in flat
   growable arrays, so recording one costs two clock reads and two
   allocation counter reads; nothing is written out until the run ends
   ([write]).

   A span's self time is its duration minus the durations of its direct
   children; self bytes likewise. [summary] aggregates both per kind. *)

type t = {
  mutable kinds : string array;  (* kind id -> name *)
  mutable n_kinds : int;
  mutable kind : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable b0 : float array;
  mutable b1 : float array;
  mutable n : int;
  mutable current : int;  (* innermost open span, -1 at top level *)
  mutable current_op : int;
  mutable probe_bytes : float;
      (* bytes one empty enter/leave pair allocates itself (the boxed
         counters of [Gc.allocated_bytes]); subtracted from every span *)
}

(* The benchmark's clock, for every timing it reports: the process's
   CPU time (user + system, from getrusage, in µs steps). The benchmark
   runs on one domain and never blocks, so this is its wall time minus
   the time the kernel or the hypervisor gave its CPU to someone else.
   On a shared VM, wall-clock op times of the same work moved by up to
   50% within minutes. *)
let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let bytes = Gc.allocated_bytes

let kind t name =
  let rec find i =
    if i = t.n_kinds then begin
      if t.n_kinds = Array.length t.kinds then begin
        let k = Array.make (2 * t.n_kinds) "" in
        Array.blit t.kinds 0 k 0 t.n_kinds;
        t.kinds <- k
      end;
      t.kinds.(i) <- name;
      t.n_kinds <- i + 1;
      i
    end
    else if String.equal t.kinds.(i) name then i
    else find (i + 1)
  in
  find 0

let grow t =
  let cap = 2 * Array.length t.kind in
  let gi a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.n; b in
  let gf a = let b = Array.make cap 0. in Array.blit a 0 b 0 t.n; b in
  t.kind <- gi t.kind;
  t.parent <- gi t.parent;
  t.op <- gi t.op;
  t.start <- gf t.start;
  t.stop <- gf t.stop;
  t.b0 <- gf t.b0;
  t.b1 <- gf t.b1

let set_op t op = t.current_op <- op

let enter t k =
  if t.n = Array.length t.kind then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.kind.(id) <- k;
  t.parent.(id) <- t.current;
  t.op.(id) <- t.current_op;
  t.current <- id;
  t.b0.(id) <- bytes ();
  t.start.(id) <- now ();
  id

let leave t id =
  t.stop.(id) <- now ();
  t.b1.(id) <- bytes ();
  t.current <- t.parent.(id)

(* Forget every recorded span (kinds are kept). *)
let clear t =
  t.n <- 0;
  t.current <- -1

(* Measure what an empty span allocates by itself, then forget the probe
   spans. Call once, before recording. *)
let calibrate t =
  let k = kind t "probe" in
  for _ = 1 to 64 do
    leave t (enter t k)
  done;
  let total = ref 0. in
  for i = 0 to t.n - 1 do
    total := !total +. (t.b1.(i) -. t.b0.(i))
  done;
  t.probe_bytes <- !total /. float_of_int t.n;
  clear t

let create () =
  let cap = 1024 in
  let t =
    {
      kinds = Array.make 16 "";
      n_kinds = 0;
      kind = Array.make cap 0;
      parent = Array.make cap (-1);
      op = Array.make cap 0;
      start = Array.make cap 0.;
      stop = Array.make cap 0.;
      b0 = Array.make cap 0.;
      b1 = Array.make cap 0.;
      n = 0;
      current = -1;
      current_op = 0;
      probe_bytes = 0.;
    }
  in
  calibrate t;
  t

type agg = {
  calls : int;
  self_s : float;
  bytes_p50 : float;
      (* median self bytes per call: the runtime now and then folds
         deferred major-heap accounting into whichever call is running
         (a 1.75 MB jump inside an allocation-free [Xwi_core.step]), which
         a mean would spread over every call *)
}

(* Per-kind aggregate of every recorded span. *)
let summary t =
  let child_s = Array.make t.n 0. in
  let child_b = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_s.(p) <- child_s.(p) +. (t.stop.(i) -. t.start.(i));
      child_b.(p) <- child_b.(p) +. (t.b1.(i) -. t.b0.(i) -. t.probe_bytes)
    end
  done;
  let calls = Array.make t.n_kinds 0 in
  let self = Array.make t.n_kinds 0. in
  for i = 0 to t.n - 1 do
    let k = t.kind.(i) in
    calls.(k) <- calls.(k) + 1;
    self.(k) <- self.(k) +. (t.stop.(i) -. t.start.(i) -. child_s.(i))
  done;
  let bytes = Array.map (fun c -> Array.make c 0.) calls in
  let filled = Array.make t.n_kinds 0 in
  for i = 0 to t.n - 1 do
    let k = t.kind.(i) in
    bytes.(k).(filled.(k)) <- t.b1.(i) -. t.b0.(i) -. t.probe_bytes -. child_b.(i);
    filled.(k) <- filled.(k) + 1
  done;
  List.init t.n_kinds (fun k ->
      ( t.kinds.(k),
        {
          calls = calls.(k);
          self_s = self.(k);
          bytes_p50 = (if calls.(k) = 0 then 0. else Nf_util.Stats.median bytes.(k));
        } ))

let find summary name =
  match List.assoc_opt name summary with
  | Some a -> a
  | None -> { calls = 0; self_s = 0.; bytes_p50 = 0. }

(* Mean self time per call, in the given unit (1e6 for µs). *)
let mean_self ~scale a =
  if a.calls = 0 then 0. else a.self_s *. scale /. float_of_int a.calls

(* One line per span, tab-separated, times in µs relative to the first
   span: id kind parent op start dur self bytes. *)
let write t path =
  let child_s = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child_s.(p) <- child_s.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let t0 = if t.n > 0 then t.start.(0) else 0. in
  let oc = open_out path in
  output_string oc "id\tkind\tparent\top\tstart_us\tdur_us\tself_us\tbytes\n";
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) -. t.start.(i) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.0f\n" i
      t.kinds.(t.kind.(i)) t.parent.(i) t.op.(i)
      ((t.start.(i) -. t0) *. 1e6)
      (d *. 1e6)
      ((d -. child_s.(i)) *. 1e6)
      (t.b1.(i) -. t.b0.(i) -. t.probe_bytes)
  done;
  close_out oc
