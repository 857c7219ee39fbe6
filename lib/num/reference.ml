(* The pre-sparse (list/array-walking) xWI kernels, retained verbatim as
   the differential-testing oracle for the CSR/CSC implementations in
   [Xwi_core], [Maxmin.solve_sparse] and the [Incidence] sweeps. They read
   only [Problem]'s flow paths and group members, never its incidence, so
   they share no structure with the code they check. Nothing here is on a
   hot path and everything may allocate; clarity and faithfulness to the
   original code win over speed. *)

let path_price problem ~prices i =
  Array.fold_left
    (fun acc lid -> acc +. prices.(lid))
    0.
    (Problem.flow_path problem i)

let group_rate problem ~rates g =
  Array.fold_left
    (fun acc i -> acc +. rates.(i))
    0.
    (Problem.group_members problem g)

let link_loads problem ~rates =
  let loads = Array.make (Problem.n_links problem) 0. in
  for i = 0 to Problem.n_flows problem - 1 do
    let x = rates.(i) in
    Array.iter
      (fun lid -> loads.(lid) <- loads.(lid) +. x)
      (Problem.flow_path problem i)
  done;
  loads

(* S(l) of the paper: the flows crossing each link, ascending, each flow
   once even if its path repeats the link. *)
let link_flows problem =
  let on_link = Array.make (Problem.n_links problem) [] in
  for i = Problem.n_flows problem - 1 downto 0 do
    Array.iter
      (fun lid ->
        match on_link.(lid) with
        | j :: _ when Int.equal j i -> ()
        | flows -> on_link.(lid) <- i :: flows)
      (Problem.flow_path problem i)
  done;
  Array.map Array.of_list on_link

let flow_weights problem ~prices ~prev_rates =
  let out = Array.make (Problem.n_flows problem) 0. in
  for g = 0 to Problem.n_groups problem - 1 do
    let members = Problem.group_members problem g in
    let u = Problem.group_utility problem g in
    if Array.length members = 1 then begin
      let i = members.(0) in
      let w = Utility.rate_from_price u (path_price problem ~prices i) in
      out.(i) <- Float.max w 1e-30
    end
    else begin
      let y = ref 0. in
      for k = 0 to Array.length members - 1 do
        y := !y +. prev_rates.(members.(k))
      done;
      let y = !y in
      let n = float_of_int (Array.length members) in
      for k = 0 to Array.length members - 1 do
        let i = members.(k) in
        let total = Utility.rate_from_price u (path_price problem ~prices i) in
        let share = if y > 1e-12 then prev_rates.(i) /. y else 1. /. n in
        out.(i) <- Float.max (total *. Float.max share (1e-8 /. n)) 1e-30
      done
    end
  done;
  out

let price_update problem (params : Xwi_core.params) ~prices ~rates =
  let n_links = Problem.n_links problem in
  let caps = Problem.caps problem in
  let loads = link_loads problem ~rates in
  let n_groups = Problem.n_groups problem in
  let group_marginal =
    Array.init n_groups (fun g ->
        (Problem.group_utility problem g).Utility.deriv
          (Float.max (group_rate problem ~rates g) 1e-12))
  in
  let n_flows = Problem.n_flows problem in
  let residual =
    Array.init n_flows (fun i ->
        let g = Problem.flow_group problem i in
        (group_marginal.(g) -. path_price problem ~prices i)
        /. float_of_int (Problem.path_len problem i))
  in
  let link_flows = link_flows problem in
  let out = Array.make n_links 0. in
  for l = 0 to n_links - 1 do
    let flows = link_flows.(l) in
    let n_here = float_of_int (Array.length flows) in
    let min_res =
      match params.Xwi_core.residual_agg with
      | Xwi_core.Agg_min ->
        let acc = ref infinity in
        for k = 0 to Array.length flows - 1 do
          let i = flows.(k) in
          if rates.(i) *. n_here >= 1e-3 *. loads.(l) then
            acc := Float.min !acc residual.(i)
        done;
        !acc
      | Xwi_core.Agg_mean ->
        let sum = ref 0. and count = ref 0 in
        for k = 0 to Array.length flows - 1 do
          let i = flows.(k) in
          if rates.(i) *. n_here >= 1e-3 *. loads.(l) then begin
            sum := !sum +. residual.(i);
            incr count
          end
        done;
        if !count = 0 then infinity else !sum /. float_of_int !count
    in
    let p_old = prices.(l) in
    let utilization = Nf_util.Fcmp.clamp ~lo:0. ~hi:1. (loads.(l) /. caps.(l)) in
    let p_new =
      if Float.is_finite min_res then
        Float.max 0.
          (p_old +. min_res -. (params.Xwi_core.eta *. (1. -. utilization) *. p_old))
      else Float.max 0. (p_old -. (params.Xwi_core.eta *. (1. -. utilization) *. p_old))
    in
    out.(l) <- (params.Xwi_core.beta *. p_old) +. ((1. -. params.Xwi_core.beta) *. p_new)
  done;
  out

let maxmin problem ~weights =
  Maxmin.solve ~caps:(Problem.caps problem) ~paths:(Problem.paths problem)
    ~weights

let step problem params ~prices ~rates ~weights =
  let w = flow_weights problem ~prices ~prev_rates:rates in
  Array.blit w 0 weights 0 (Array.length w);
  let x = (maxmin problem ~weights).Maxmin.rates in
  Array.blit x 0 rates 0 (Array.length x);
  let p = price_update problem params ~prices ~rates in
  Array.blit p 0 prices 0 (Array.length p)
