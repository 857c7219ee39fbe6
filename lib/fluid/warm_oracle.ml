module Xwi_core = Nf_num.Xwi_core
module Kkt = Nf_num.Kkt

type t = { n_links : int; mutable prices : float array option }

let create ~n_links = { n_links; prices = None }

let solve ?(tol = 1e-5) t problem =
  if Nf_num.Problem.n_links problem <> t.n_links then
    invalid_arg "Warm_oracle.solve: link count mismatch";
  let params = Xwi_core.default_params in
  let state =
    match t.prices with
    | Some prices -> Xwi_core.init_with_prices problem ~prices
    | None -> Xwi_core.init problem
  in
  let run = Xwi_core.run_until_kkt ~tol ~max_iters:3_000 problem params state in
  let state =
    if run.Xwi_core.converged then state
    else begin
      (* Cold restart with extra damping. *)
      let state = Xwi_core.init problem in
      let params = { params with Xwi_core.beta = 0.8 } in
      ignore (Xwi_core.run_until_kkt ~tol ~max_iters:20_000 problem params state);
      state
    end
  in
  let report =
    Kkt.check problem ~rates:state.Xwi_core.rates ~prices:state.Xwi_core.prices
  in
  if Kkt.worst report > tol then
    raise
      (Nf_num.Oracle.Did_not_converge
         (Format.asprintf "Warm_oracle.solve: %a" Kkt.pp report));
  t.prices <- Some (Array.copy state.Xwi_core.prices);
  Array.copy state.Xwi_core.rates
