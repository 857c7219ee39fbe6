(* Correctness gate: every timed result is checked, and a failed check
   fails the run. Each check returns [None] when the output is right and
   [Some reason] otherwise. *)

module Problem = Nf_num.Problem
module Kkt = Nf_num.Kkt

(* The certificate both solver workloads are held to: the KKT residual
   the serve engine itself solves to, and no link over capacity. *)
let kkt_tol = 1e-6

let allocation problem ~rates ~prices =
  let worst = Kkt.worst (Kkt.check problem ~rates ~prices) in
  if not (worst <= kkt_tol) then
    Some (Printf.sprintf "KKT residual %.3g above %.0e" worst kkt_tol)
  else if not (Problem.feasible problem ~rates) then Some "allocation infeasible"
  else None

(* A completed flow must have delivered exactly its size: no lost bytes,
   no duplicate delivery. *)
let delivery ~flow ~size ~received =
  if Float.equal received size then None
  else Some (Printf.sprintf "flow %d delivered %.0f of %.0f bytes" flow received size)
