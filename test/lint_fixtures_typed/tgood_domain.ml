(* domain-safety good cases: every shape the rule must accept.
   - closure-local ref (bound inside the task)
   - captured output buffer written at a chunk-local index (the task's
     own loop variable)
   - Atomic as the sanctioned cross-domain cell
   - mutex-guarded write via Mutex.protect *)

let out = Array.make 16 0.0

let spawn_chunk () =
  Stdlib.Domain.spawn (fun () ->
      let acc = ref 0.0 in
      for i = 0 to 15 do
        acc := !acc +. 1.0;
        Array.unsafe_set out i !acc
      done)

let total = Atomic.make 0

let spawn_atomic () = Stdlib.Domain.spawn (fun () -> Atomic.set total 1)

let m = Mutex.create ()

let guarded = ref 0

let spawn_guarded () =
  Stdlib.Domain.spawn (fun () -> Mutex.protect m (fun () -> guarded := 1))
