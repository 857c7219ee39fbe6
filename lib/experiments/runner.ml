type result = {
  task_name : string;
  outcome : (Report.t, string) Stdlib.result;
  wall : float;
}

(* Wall-clock on purpose: a task's wall is a diagnostic shown on stderr;
   nothing derived from it enters a Report. *)
let[@nf.allow "determinism"] now () = Unix.gettimeofday ()

let run_task ~ctx (e : Registry.entry) =
  let started = now () in
  let outcome =
    match e.run ctx with
    | report -> Ok report
    | exception exn -> Error (Printexc.to_string exn)
  in
  { task_name = e.name; outcome; wall = now () -. started }

(* A fixed pool: each worker claims the next task index from one shared
   counter and keeps its own (index, result) pairs, which it hands back
   through [Domain.join]; the parent then puts them in task order. With
   one worker the counter hands out the tasks in order. *)
let run ~jobs ~ctx tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop acc =
      let idx = Atomic.fetch_and_add next 1 in
      if idx >= n then acc else loop ((idx, run_task ~ctx tasks.(idx)) :: acc)
    in
    loop []
  in
  let workers =
    List.init (Stdlib.max 1 (Stdlib.min jobs n)) (fun _ -> Domain.spawn worker)
  in
  List.concat_map Domain.join workers
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let total_wall results = List.fold_left (fun acc r -> acc +. r.wall) 0. results

let pp_summary ppf results =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      let status =
        match r.outcome with Ok _ -> "ok" | Error msg -> "FAILED: " ^ msg
      in
      Format.fprintf ppf "  %-14s %7.2f s  %s@," r.task_name r.wall status)
    results;
  Format.fprintf ppf "@]"
