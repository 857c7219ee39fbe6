type failure = Timed_out of float | Failed of string

type result = {
  task_name : string;
  outcome : (Report.t, failure) Stdlib.result;
  wall : float;
  attempts : int;
}

let is_transient = function Nf_num.Oracle.Did_not_converge _ -> true | _ -> false

(* One attempt of one task, running on its own domain. [cell] is the
   rendezvous: the domain stores its outcome there; the scheduler polls
   it (Condition has no timed wait, and polling at a few hundred Hz is
   invisible next to experiment runtimes). *)
type attempt = {
  idx : int;
  attempt_no : int;  (* 0-based *)
  started : float;
  cell : (Report.t, exn) Stdlib.result option Atomic.t;
  domain : unit Domain.t;
}

(* Wall-clock on purpose: task timeouts and retry bookkeeping are about
   real elapsed time; nothing derived from it enters a Report. *)
let[@nf.allow "determinism"] now () = Unix.gettimeofday ()

let spawn ~ctx ~idx ~attempt_no (e : Registry.entry) =
  let cell = Atomic.make None in
  let task_ctx = Ctx.for_task ctx ~index:idx ~attempt:attempt_no in
  let domain =
    Domain.spawn (fun () ->
        let outcome =
          match e.run task_ctx with
          | report -> Ok report
          | exception e -> Error e
        in
        Atomic.set cell (Some outcome))
  in
  { idx; attempt_no; started = now (); cell; domain }

let run ~jobs ?timeout ~retries ~ctx tasks =
  let jobs = Stdlib.max 1 jobs in
  if retries < 0 then invalid_arg "Runner.run: negative retries";
  (match timeout with
  | Some t when t <= 0. -> invalid_arg "Runner.run: non-positive timeout"
  | _ -> ());
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let results : result option array = Array.make n None in
  (* Pending attempts, popped in task order so [jobs = 1] degenerates to
     plain sequential execution. *)
  let pending = Queue.create () in
  Array.iteri (fun idx _ -> Queue.add (idx, 0) pending) tasks;
  let inflight = ref [] in
  let done_count = ref 0 in
  let finish idx ~attempts ~wall outcome =
    results.(idx) <-
      Some { task_name = tasks.(idx).Registry.name; outcome; wall; attempts };
    incr done_count
  in
  while !done_count < n do
    (* Fill free worker slots. *)
    while List.length !inflight < jobs && not (Queue.is_empty pending) do
      let idx, attempt_no = Queue.pop pending in
      inflight := spawn ~ctx ~idx ~attempt_no tasks.(idx) :: !inflight
    done;
    (* Poll in-flight attempts. *)
    let progressed = ref false in
    let still_running =
      List.filter
        (fun a ->
          match Atomic.get a.cell with
          | Some outcome ->
            Domain.join a.domain;
            progressed := true;
            let wall = now () -. a.started in
            (match outcome with
            | Ok report ->
              finish a.idx ~attempts:(a.attempt_no + 1) ~wall (Ok report)
            | Error e when is_transient e && a.attempt_no < retries ->
              Queue.add (a.idx, a.attempt_no + 1) pending
            | Error e ->
              finish a.idx ~attempts:(a.attempt_no + 1) ~wall
                (Error (Failed (Printexc.to_string e))));
            false
          | None -> (
            match timeout with
            | Some limit when now () -. a.started > limit ->
              (* Can't interrupt a domain: abandon it (it parks one core
                 until it finishes; its late result is discarded). *)
              progressed := true;
              if a.attempt_no < retries then
                Queue.add (a.idx, a.attempt_no + 1) pending
              else
                finish a.idx ~attempts:(a.attempt_no + 1) ~wall:limit
                  (Error (Timed_out limit));
              false
            | _ -> true))
        !inflight
    in
    inflight := still_running;
    if not !progressed then Unix.sleepf 0.002
  done;
  Array.to_list
    (Array.map
       (function Some r -> r | None -> assert false (* every idx finished *))
       results)

let total_wall results = List.fold_left (fun acc r -> acc +. r.wall) 0. results

let pp_summary ppf results =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      let status =
        match r.outcome with
        | Ok _ -> "ok"
        | Error (Timed_out t) -> Printf.sprintf "TIMED OUT (%.1f s/attempt)" t
        | Error (Failed msg) -> "FAILED: " ^ msg
      in
      Format.fprintf ppf "  %-14s %7.2f s  %d attempt%s  %s@," r.task_name
        r.wall r.attempts
        (if r.attempts = 1 then "" else "s")
        status)
    results;
  Format.fprintf ppf "@]"
