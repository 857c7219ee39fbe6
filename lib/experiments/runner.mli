(** Multicore experiment executor: a worker pool.

    {!run} hands a list of {!Registry.entry}s (each a named pure
    function from a {!Ctx.t} to a {!Report.t}) to a fixed pool of
    OCaml 5 worker domains and merges the results {e deterministically}:
    the result list is in task order, every task runs on the one context
    it is given (never on its index or on scheduling), and reports carry
    no wall-clock data — so the merged output is byte-identical whatever
    [jobs] is.
    Timings are returned alongside, for diagnostics, but live outside
    the reports.

    Fault containment: a task that raises — a solver's
    [Nf_num.Oracle.Did_not_converge] included — is caught on its worker
    domain and recorded as a failed result after its one run; the pool
    keeps going. Nothing is retried and nothing is timed out: a failure
    is reported, not re-rolled with another seed. *)

type result = {
  task_name : string;
  outcome : (Report.t, string) Stdlib.result;
      (** [Error] carries the raised exception's [Printexc.to_string] *)
  wall : float;  (** wall-clock seconds of the task's run *)
}

val run : jobs:int -> ctx:Ctx.t -> Registry.entry list -> result list
(** Runs every entry (a {e task}) once and returns results {e in task
    order}; [task_name] is the entry's name. Every task runs with [ctx]
    itself, so a task's report equals the one it gives when run alone.

    [jobs] bounds the pool: [min jobs n] worker domains for [n] tasks,
    at least one, so with [jobs = 1] the tasks still run off the calling
    domain, one at a time, in task order. *)

val total_wall : result list -> float
(** Sum of per-task walls: the task-seconds of a run. Each wall is taken
    while the tasks share the machine, so this is not what a serial run
    would take. *)

val pp_summary : Format.formatter -> result list -> unit
(** One diagnostic line per task (wall, outcome); intended for stderr
    so stdout stays byte-identical across [jobs]. *)
