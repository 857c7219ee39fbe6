type t = {
  enqueue : Packet.t -> bool;
  dequeue : unit -> Packet.t option;
  dequeue_exn : unit -> Packet.t;
  byte_length : unit -> int;
  packet_count : unit -> int;
  drops : unit -> int;
}

let empty_queue () = invalid_arg "Queue_disc.dequeue_exn: empty queue"

let default_limit_bytes = 1_000_000

let fifo_generic ~limit_bytes ~on_enqueue =
  let q : Packet.t Queue.t = Queue.create () in
  let bytes = ref 0 in
  let dropped = ref 0 in
  let enqueue p =
    if !bytes + p.Packet.size > limit_bytes then begin
      incr dropped;
      false
    end
    else begin
      on_enqueue ~queue_bytes:!bytes p;
      Queue.add p q;
      bytes := !bytes + p.Packet.size;
      true
    end
  in
  let dequeue_exn () =
    match Queue.take q with
    | p ->
      bytes := !bytes - p.Packet.size;
      p
    | exception Queue.Empty -> empty_queue ()
  in
  let dequeue () =
    if Queue.is_empty q then None else Some (dequeue_exn ())
  in
  {
    enqueue;
    dequeue;
    dequeue_exn;
    byte_length = (fun () -> !bytes);
    packet_count = (fun () -> Queue.length q);
    drops = (fun () -> !dropped);
  }

let fifo ?(limit_bytes = default_limit_bytes) () =
  fifo_generic ~limit_bytes ~on_enqueue:(fun ~queue_bytes:_ _ -> ())

let ecn_fifo ?(limit_bytes = default_limit_bytes) ~mark_threshold_bytes () =
  let mark ~queue_bytes p =
    if queue_bytes > mark_threshold_bytes then p.Packet.ecn <- true
  in
  fifo_generic ~limit_bytes ~on_enqueue:mark

(* ------------------------------------------------------------------ *)
(* STFQ — packets ordered by virtual start tag. The heap is a
   monomorphic float-keyed SoA heap ({!Nf_util.Fheap}): pushing a packet
   stores an unboxed tag plus the packet pointer, no per-entry record,
   and the heap's internal sequence number provides the FIFO tie-break
   the old [order] field implemented. *)

let stfq_dummy =
  Packet.make_data ~flow:(-1) ~seq:(-1) ~size:0 ~path:[||] ~now:0.

let stfq ?(limit_bytes = default_limit_bytes) () =
  let heap : Packet.t Nf_util.Fheap.t =
    Nf_util.Fheap.create ~capacity:64 ~dummy:stfq_dummy ()
  in
  (* Finish tags live in a flat float array indexed by flow id (grown
     geometrically on demand): unlike a [(int, float) Hashtbl.t], reading
     and writing never boxes the float. The default 0. matches the old
     missing-key semantics. [virtual_time] is a 1-element array for the
     same reason — [float ref] assignment allocates a box per store. *)
  let finish_tags = ref (Array.make 64 0.) in
  let ensure_flow fl =
    if fl < 0 then invalid_arg "Queue_disc.stfq: negative flow id";
    let tags = !finish_tags in
    let n = Array.length tags in
    if fl >= n then begin
      let n' = ref (2 * n) in
      while fl >= !n' do
        n' := 2 * !n'
      done;
      let grown = Array.make !n' 0. in
      Array.blit tags 0 grown 0 n;
      finish_tags := grown
    end
  in
  let virtual_time = [| 0. |] in
  (* Comparison-only [Float.max], the NUM core's [fmax] (see
     [Nf_num.Xwi_core.fmax]): bit-identical to the stdlib on every
     non-NaN input, ±0 included, NaN-propagating like it, and free of
     its [caml_signbit_float] C calls. *)
  let[@inline] fmax (x : float) (y : float) =
    if y > x then y
    else if x > y then x
    else if Float.is_nan x then x
    else if Float.is_nan y then y
    else if Float.equal x 0. then x +. y
    else x
  in
  let bytes = ref 0 in
  let dropped = ref 0 in
  let[@nf.hot] enqueue p =
    if !bytes + p.Packet.size > limit_bytes then begin
      incr dropped;
      false
    end
    else begin
      let fl = p.Packet.flow in
      ensure_flow fl;
      let tags = !finish_tags in
      let start_tag = fmax virtual_time.(0) tags.(fl) in
      tags.(fl) <- start_tag +. p.Packet.fl.Packet.virtual_packet_len;
      Nf_util.Fheap.push heap ~key:start_tag ~aux:0 p;
      bytes := !bytes + p.Packet.size;
      true
    end
  in
  let[@nf.hot] dequeue_exn () =
    if Nf_util.Fheap.is_empty heap then empty_queue ();
    virtual_time.(0) <- Nf_util.Fheap.top_key heap;
    let p = Nf_util.Fheap.top heap in
    Nf_util.Fheap.drop heap;
    bytes := !bytes - p.Packet.size;
    p
  in
  let dequeue () =
    if Nf_util.Fheap.is_empty heap then None else Some (dequeue_exn ())
  in
  {
    enqueue;
    dequeue;
    dequeue_exn;
    byte_length = (fun () -> !bytes);
    packet_count = (fun () -> Nf_util.Fheap.length heap);
    drops = (fun () -> !dropped);
  }

(* ------------------------------------------------------------------ *)
(* pFabric: small queue, linear scans (the buffer holds tens of packets).
   Dequeue: earliest-queued packet of the flow owning the minimum-priority
   packet (keeps flows in order). Overflow: drop the maximum-priority
   packet already queued if the arriving one beats it, else the arrival. *)

type pf_entry = { p : Packet.t; arrival : int }

let prio e = e.p.Packet.fl.Packet.priority

let pfabric ?(limit_bytes = default_limit_bytes) () =
  let entries : pf_entry list ref = ref [] in
  let bytes = ref 0 in
  let dropped = ref 0 in
  let counter = ref 0 in
  let insert p =
    incr counter;
    entries := { p; arrival = !counter } :: !entries;
    bytes := !bytes + p.Packet.size
  in
  let remove_entry e =
    entries := List.filter (fun e' -> e' != e) !entries;
    bytes := !bytes - e.p.Packet.size
  in
  let enqueue p =
    if !bytes + p.Packet.size <= limit_bytes then begin
      insert p;
      true
    end
    else begin
      (* Find the worst (max priority value) queued data packet. *)
      let worst =
        List.fold_left
          (fun acc e ->
            match acc with
            | None -> Some e
            | Some w ->
              if prio e > prio w then Some e else acc)
          None !entries
      in
      match worst with
      | Some w when prio w > p.Packet.fl.Packet.priority ->
        remove_entry w;
        incr dropped;
        insert p;
        true
      | Some _ | None ->
        incr dropped;
        false
    end
  in
  let dequeue () =
    match !entries with
    | [] -> None
    | _ :: _ ->
      (* Min-priority packet decides the flow... *)
      let best =
        List.fold_left
          (fun acc e ->
            match acc with
            | None -> Some e
            | Some b ->
              if
                prio e < prio b || (prio e = prio b && e.arrival < b.arrival)
              then Some e
              else acc)
          None !entries
      in
      (match best with
      | None -> None
      | Some b ->
        (* ... then serve that flow's earliest-queued packet. *)
        let first =
          List.fold_left
            (fun acc e ->
              if e.p.Packet.flow <> b.p.Packet.flow then acc
              else
                match acc with
                | None -> Some e
                | Some f -> if e.arrival < f.arrival then Some e else acc)
            None !entries
        in
        let e = match first with Some e -> e | None -> b in
        remove_entry e;
        Some e.p)
  in
  let dequeue_exn () =
    match dequeue () with Some p -> p | None -> empty_queue ()
  in
  {
    enqueue;
    dequeue;
    dequeue_exn;
    byte_length = (fun () -> !bytes);
    packet_count = (fun () -> List.length !entries);
    drops = (fun () -> !dropped);
  }
