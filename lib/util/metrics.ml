type hist_state = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* per-bound counts; +Inf bucket is implicit *)
  mutable inf_count : int;
  mutable sum : float;
}

type value =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of hist_state

type metric = { name : string; help : string; value : value }

type t = { mutable metrics : metric list (* reverse registration order *) }

type counter = int ref

type gauge = float ref

type histogram = hist_state

let create () = { metrics = [] }

let global = create ()

let kind_label = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find t name = List.find_opt (fun m -> m.name = name) t.metrics

let register t ~help name value =
  t.metrics <- { name; help; value } :: t.metrics;
  value

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %S is already registered as a %s, not a %s" name
       (kind_label existing) wanted)

let counter t ?(help = "") name =
  match find t name with
  | Some { value = Counter c; _ } -> c
  | Some { value; _ } -> mismatch name value "counter"
  | None -> (
    match register t ~help name (Counter (ref 0)) with
    | Counter c -> c
    | _ -> assert false)

let gauge t ?(help = "") name =
  match find t name with
  | Some { value = Gauge g; _ } -> g
  | Some { value; _ } -> mismatch name value "gauge"
  | None -> (
    match register t ~help name (Gauge (ref 0.)) with
    | Gauge g -> g
    | _ -> assert false)

let histogram t ?(help = "") ~buckets name =
  match find t name with
  | Some { value = Histogram h; _ } -> h
  | Some { value; _ } -> mismatch name value "histogram"
  | None ->
    let bounds = Array.of_list buckets in
    let ok = ref (Array.length bounds > 0) in
    Array.iteri
      (fun i b -> if i > 0 && not (b > bounds.(i - 1)) then ok := false)
      bounds;
    if not !ok then
      invalid_arg "Metrics.histogram: buckets must be non-empty and increasing";
    let h =
      { bounds; counts = Array.make (Array.length bounds) 0; inf_count = 0;
        sum = 0. }
    in
    (match register t ~help name (Histogram h) with
    | Histogram h -> h
    | _ -> assert false)

let incr c = Stdlib.incr c

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  c := !c + n

let counter_value c = !c

let set_gauge g v = g := v

(* Annotated, so the comparison is a float compare rather than the
   polymorphic [caml_greaterthan]; [@inline], so a caller's float reaches
   it unboxed and only a new high-water mark (rare by construction)
   boxes. *)
let[@inline] max_gauge (g : gauge) (v : float) = if v > !g then g := v

let gauge_value g = !g

let observe h v =
  h.sum <- h.sum +. v;
  let n = Array.length h.bounds in
  let rec place i =
    if i >= n then h.inf_count <- h.inf_count + 1
    else if v <= h.bounds.(i) then h.counts.(i) <- h.counts.(i) + 1
    else place (i + 1)
  in
  place 0

let histogram_count h = Array.fold_left ( + ) h.inf_count h.counts

let histogram_sum h = h.sum

let reset t =
  List.iter
    (fun m ->
      match m.value with
      | Counter c -> c := 0
      | Gauge g -> g := 0.
      | Histogram h ->
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.inf_count <- 0;
        h.sum <- 0.)
    t.metrics

let in_order t = List.rev t.metrics

let primary_value = function
  | Counter c -> float_of_int !c
  | Gauge g -> !g
  | Histogram h -> float_of_int (histogram_count h)

let fold_values t ~init ~f =
  let acc = ref init in
  List.iteri
    (fun id m -> acc := f !acc ~id ~name:m.name (primary_value m.value))
    (in_order t);
  !acc

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Bucket bounds use the same formatting as every other float sample
   ([num]): [%g] would round non-representable bounds (0.1 ->
   "0.1" vs the stored 0.10000000000000001), so the Prometheus [le]
   labels and the JSON bucket bounds would not round-trip to the exact
   bound the histogram cuts on. *)
let bound_label = num

let to_prometheus t =
  let buf = Buffer.create 1024 in
  (* Prometheus text format: HELP text must escape backslash and line
     feed, or a multi-line help string breaks the exposition page. *)
  let escape_help s =
    if String.exists (fun c -> Char.equal c '\n' || Char.equal c '\\') s then begin
      let b = Buffer.create (String.length s + 8) in
      String.iter
        (fun c ->
          match c with
          | '\n' -> Buffer.add_string b "\\n"
          | '\\' -> Buffer.add_string b "\\\\"
          | c -> Buffer.add_char b c)
        s;
      Buffer.contents b
    end
    else s
  in
  List.iter
    (fun m ->
      if m.help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" m.name (escape_help m.help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" m.name (kind_label m.value));
      (match m.value with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%s %d\n" m.name !c)
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "%s %s\n" m.name (num !g))
      | Histogram h ->
        let cum = ref 0 in
        Array.iteri
          (fun i b ->
            cum := !cum + h.counts.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m.name
                 (bound_label b) !cum))
          h.bounds;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m.name
             (histogram_count h));
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" m.name (num h.sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count %d\n" m.name (histogram_count h))))
    (in_order t);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"metrics\": [";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "{\"name\": %S, \"type\": %S, " m.name
           (kind_label m.value));
      (match m.value with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "\"value\": %d" !c)
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "\"value\": %s" (num !g))
      | Histogram h ->
        Buffer.add_string buf "\"buckets\": [";
        Array.iteri
          (fun i b ->
            if i > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf "[%s, %d]" (bound_label b) h.counts.(i)))
          h.bounds;
        Buffer.add_string buf
          (Printf.sprintf "], \"inf\": %d, \"sum\": %s, \"count\": %d"
             h.inf_count (num h.sum) (histogram_count h)));
      Buffer.add_string buf "}")
    (in_order t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
