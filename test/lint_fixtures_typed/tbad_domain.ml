(* domain-safety bad cases: captured mutable state written inside
   parallel closures. Expected findings, in order:
   - captured ref incremented in a Domain.spawn loop
   - captured Hashtbl mutated in a Domain.spawn loop
   - captured array written at a constant index in a Domain.spawn loop
   - captured ref assigned in a Domain.spawn closure
   - mutable field of a captured record written in a Domain.spawn
     closure *)

let counter = ref 0

let tbl : (int, int) Hashtbl.t = Hashtbl.create 8

let out = Array.make 4 0.0

let spawn_loop () =
  Stdlib.Domain.spawn (fun () ->
      for i = 0 to 3 do
        counter := !counter + i;
        Hashtbl.replace tbl i i;
        Array.unsafe_set out 0 1.0
      done)

let spawn_ref () = Stdlib.Domain.spawn (fun () -> counter := 1)

type cell = { mutable v : float }

let shared = { v = 0.0 }

let spawn_field () = Stdlib.Domain.spawn (fun () -> shared.v <- 1.0)
