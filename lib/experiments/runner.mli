(** Multicore sharded experiment executor.

    A {!task} is a named pure function from a {!Ctx.t} to a
    {!Report.t}; {!run} shards a task list across a pool of OCaml 5
    domains and merges the results {e deterministically}: the result
    list is in task order, each task's context depends only on its index
    and attempt (never on scheduling), and reports carry no wall-clock
    data — so the merged output is byte-identical whatever [jobs] is.
    Timings are returned alongside, for diagnostics, but live outside
    the reports.

    Fault containment: a task that raises is caught on its worker domain
    and recorded as a {!failure}; the pool keeps going. Transient
    failures ([Nf_num.Oracle.Did_not_converge], timeouts) are retried up
    to [retries] times with a perturbed RNG seed ({!Ctx.rng_seed}).

    Timeouts: domains cannot be interrupted, so a timed-out attempt is
    {e abandoned} — its domain keeps running in the background (wasting
    one core until it finishes) while the scheduler moves on. That makes
    timeouts safe for the occasional stuck solver, not for routinely
    over-budget tasks. *)

type task = {
  name : string;  (** unique within a run; used in results and listings *)
  run : Ctx.t -> Report.t;
}

val task : name:string -> (Ctx.t -> Report.t) -> task

val of_entry : Registry.entry -> task

type failure =
  | Timed_out of float  (** no attempt finished within [timeout] seconds *)
  | Failed of string  (** last attempt raised; the [Printexc.to_string] *)

type result = {
  task_name : string;
  outcome : (Report.t, failure) Stdlib.result;
  wall : float;  (** wall-clock seconds of the final attempt *)
  attempts : int;  (** total attempts made (1 = no retry needed) *)
}

val transient : exn -> bool
(** The default retry predicate: true for
    [Nf_num.Oracle.Did_not_converge]. *)

val run :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?is_transient:(exn -> bool) ->
  ?ctx:Ctx.t ->
  task list ->
  result list
(** Executes every task and returns results {e in task order}.

    [jobs] is the worker-pool width (default
    [Domain.recommended_domain_count ()], clamped to at least 1); with
    [jobs = 1] tasks still run on a worker domain, one at a time, so
    timeout/crash behavior is identical to the parallel case.
    [timeout] bounds each attempt's wall-clock seconds (default: none).
    [retries] bounds extra attempts after a transient failure (default
    1). Task [k] runs with [Ctx.for_task ctx ~index:k ~attempt]. *)

val total_wall : result list -> float
(** Sum of per-task walls: the task-seconds of a run. Each wall is taken
    while the tasks share the machine, so this is not what a serial run
    would take. *)

val pp_summary : Format.formatter -> result list -> unit
(** One diagnostic line per task (wall, attempts, outcome); intended for
    stderr so stdout stays byte-identical across [jobs]. *)
