type solution = {
  rates : float array;
  group_rates : float array;
  prices : float array;
  iterations : int;
  kkt : Kkt.report;
}

exception Did_not_converge of string

let make_solution problem ~rates ~prices ~iterations ~kkt =
  let group_rates = Array.make (Problem.n_groups problem) 0. in
  Problem.group_rates_into problem ~rates group_rates;
  { rates; group_rates; prices; iterations; kkt }

type carry = { mutable last : Xwi_core.state option }

let carry () = { last = None }

let solve ?(tol = 1e-6) ?(max_iters = 60_000) ?carry problem =
  let state, run =
    Xwi_core.solve ~tol ~max_iters problem
      (match carry with Some c -> c.last | None -> None)
  in
  (* [solve] consumed the carried state: until this solve certifies, the
     carry holds nothing. Emptied only now, because [resize] raises on a
     link-count change and the carry then stays as it was. *)
  Option.iter (fun c -> c.last <- None) carry;
  if not run.Xwi_core.converged then
    raise
      (Did_not_converge
         (Format.asprintf "Oracle.solve: after %d iterations, %a"
            run.Xwi_core.iterations Kkt.pp run.Xwi_core.kkt));
  Option.iter (fun c -> c.last <- Some state) carry;
  make_solution problem ~rates:(Array.copy state.Xwi_core.rates)
    ~prices:(Array.copy state.Xwi_core.prices)
    ~iterations:run.Xwi_core.iterations ~kkt:run.Xwi_core.kkt
