(* Runtime allocation/GC accounting: per-category allocated-bytes
   accumulators (keyed by the same interned [Profile.cat] ints, flat
   float arrays so recording is an unboxed store), process-wide GC
   counters exported through [Metrics]. Kept free of any [Profile]
   dependency so [Profile] can hook into it. *)

let enabled_flag = ref false

let enabled () = !enabled_flag

let set_enabled b = enabled_flag := b

let bytes () = Gc.allocated_bytes ()

(* --- per-category accounting --------------------------------------- *)

let cat_bytes = ref (Array.make 16 0.)

let cat_calls = ref (Array.make 16 0)

let n_cats = ref 0

let ensure id =
  if id < 0 then invalid_arg "Gcstats: negative category";
  let cap = Array.length !cat_bytes in
  if id >= cap then begin
    let n = ref (2 * cap) in
    while id >= !n do n := 2 * !n done;
    let b = Array.make !n 0. in
    Array.blit !cat_bytes 0 b 0 cap;
    cat_bytes := b;
    let c = Array.make !n 0 in
    Array.blit !cat_calls 0 c 0 cap;
    cat_calls := c
  end;
  if id >= !n_cats then n_cats := id + 1

let record id db =
  ensure id;
  !cat_bytes.(id) <- !cat_bytes.(id) +. db;
  !cat_calls.(id) <- !cat_calls.(id) + 1

let reset () =
  Array.fill !cat_bytes 0 (Array.length !cat_bytes) 0.;
  Array.fill !cat_calls 0 (Array.length !cat_calls) 0

let categories () =
  let rows = ref [] in
  for id = !n_cats - 1 downto 0 do
    if !cat_calls.(id) > 0 then
      rows := (id, !cat_calls.(id), !cat_bytes.(id)) :: !rows
  done;
  List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a) !rows

let pp_table ~name_of ppf () =
  match categories () with
  | [] -> Format.fprintf ppf "(no allocations recorded)"
  | rows ->
    let total = List.fold_left (fun acc (_, _, b) -> acc +. b) 0. rows in
    Format.fprintf ppf "@[<v>%-24s %12s %14s %12s@," "category" "calls"
      "bytes" "bytes/call";
    List.iter
      (fun (id, calls, bytes) ->
        Format.fprintf ppf "%-24s %12d %14.0f %12.2f@," (name_of id) calls
          bytes
          (bytes /. float_of_int calls))
      rows;
    Format.fprintf ppf "%-24s %12s %14.0f %12s@]" "total" "" total ""

(* --- process-wide GC metrics --------------------------------------- *)

(* Counters are set to the process-lifetime totals at each [publish]:
   raising a counter to the current total (instead of keeping a snapshot)
   keeps publish idempotent and the counters monotone. *)
let raise_to c v =
  let cur = Metrics.counter_value c in
  if v > cur then Metrics.add c (v - cur)

let publish ?(registry = Metrics.global) () =
  let s = Gc.quick_stat () in
  let word = float_of_int (Sys.word_size / 8) in
  let byte_total words = int_of_float (words *. word) in
  raise_to
    (Metrics.counter registry ~help:"Minor GC collections" "nf_gc_minor_collections_total")
    s.Gc.minor_collections;
  raise_to
    (Metrics.counter registry ~help:"Major GC collection cycles" "nf_gc_major_collections_total")
    s.Gc.major_collections;
  raise_to
    (Metrics.counter registry ~help:"Heap compactions" "nf_gc_compactions_total")
    s.Gc.compactions;
  raise_to
    (Metrics.counter registry ~help:"Bytes allocated since process start"
       "nf_gc_allocated_bytes_total")
    (byte_total (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words));
  raise_to
    (Metrics.counter registry ~help:"Bytes promoted from the minor heap"
       "nf_gc_promoted_bytes_total")
    (byte_total s.Gc.promoted_words);
  Metrics.set_gauge
    (Metrics.gauge registry ~help:"Major heap size in bytes" "nf_gc_heap_bytes")
    (float_of_int s.Gc.heap_words *. word);
  Metrics.set_gauge
    (Metrics.gauge registry ~help:"Largest major heap size in bytes"
       "nf_gc_top_heap_bytes")
    (float_of_int s.Gc.top_heap_words *. word)
