(* The pre-sparse (list/array-walking) xWI kernels, retained verbatim as
   the differential-testing oracle for the CSR/CSC implementations in
   [Xwi_core], [Maxmin.solve_sparse] and the [Incidence] sweeps, plus a
   checker of the max-min conditions themselves and a dual gradient NUM
   solver the xWI optimum is checked against. They read only
   [Problem]'s flow paths and its groups' member lists (the incidence's
   group rows, an input like the paths), never the incidence's link
   columns or sweeps, so they share no kernel with the code they check.
   Nothing here is on a hot path and everything may allocate; clarity and
   faithfulness to the original code win over speed. *)

open Nf_num

let path_price problem ~prices i =
  Array.fold_left
    (fun acc lid -> acc +. prices.(lid))
    0.
    (Problem.flow_path problem i)

let group_members problem g =
  let inc = Problem.incidence problem in
  let start = inc.Incidence.grp_ptr.(g) in
  Array.sub inc.Incidence.grp_flows start (inc.Incidence.grp_ptr.(g + 1) - start)

let group_rate problem ~rates g =
  Array.fold_left
    (fun acc i -> acc +. rates.(i))
    0.
    (group_members problem g)

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
    let members = group_members problem g in
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
        Utility.deriv (Problem.group_utility problem g)
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

type allocation = {
  rates : float array;
  bottleneck : int array;
  fair_share : float array;
}

let validate ~caps ~paths ~weights =
  let n_links = Array.length caps in
  if Array.length paths <> Array.length weights then
    invalid_arg "Reference.water_fill: paths/weights length mismatch";
  Array.iter
    (fun c -> if not (c > 0.) then invalid_arg "Reference.water_fill: non-positive capacity")
    caps;
  Array.iter
    (fun w -> if not (w > 0.) then invalid_arg "Reference.water_fill: non-positive weight")
    weights;
  Array.iter
    (fun path ->
      if Array.length path = 0 then invalid_arg "Reference.water_fill: empty path";
      Array.iter
        (fun l ->
          if l < 0 || l >= n_links then invalid_arg "Reference.water_fill: bad link id")
        path)
    paths

(* Progressive filling: raise the fair-share level of all unfrozen flows
   simultaneously; at each round find the link that saturates first, freeze
   the flows crossing it, and continue. Integer per-link active-flow counts
   (not float weight sums) decide which links still constrain the fill, so
   rounding noise can never leave a phantom constraint that would stall the
   loop. O(rounds * total path length), rounds <= number of links.

   This flow-major scan is the reference [Maxmin.solve_sparse] is checked
   against; it allocates freely. *)
let water_fill ~caps ~paths ~weights =
  validate ~caps ~paths ~weights;
  let n_flows = Array.length paths and n_links = Array.length caps in
  let frozen = Array.make n_flows false
  and rem_cap = Array.copy caps
  and active_weight = Array.make n_links 0.
  and active_count = Array.make n_links 0
  and saturated = Array.make n_links false
  and bottleneck = Array.make n_flows (-1)
  and fair_share = Array.make n_flows 0.
  and rates = Array.make n_flows 0. in
  for i = 0 to n_flows - 1 do
    let path = paths.(i) in
    let w = weights.(i) in
    for k = 0 to Array.length path - 1 do
      let l = path.(k) in
      active_weight.(l) <- active_weight.(l) +. w;
      active_count.(l) <- active_count.(l) + 1
    done
  done;
  let level = ref 0. in
  let n_active = ref n_flows in
  while !n_active > 0 do
    (* Smallest additional fair share that saturates some constraining link. *)
    let delta = ref infinity and argmin = ref (-1) in
    for l = 0 to n_links - 1 do
      if active_count.(l) > 0 then begin
        let d = Float.max 0. (rem_cap.(l) /. active_weight.(l)) in
        if d < !delta then begin
          delta := d;
          argmin := l
        end
      end
    done;
    if !argmin < 0 then begin
      (* No active flow crosses any link: impossible since every flow has a
         non-empty path, but keep a defensive exit. *)
      for i = 0 to n_flows - 1 do
        if not frozen.(i) then begin
          frozen.(i) <- true;
          fair_share.(i) <- !level;
          rates.(i) <- weights.(i) *. !level
        end
      done;
      n_active := 0
    end
    else begin
      let d = !delta in
      level := !level +. d;
      for l = 0 to n_links - 1 do
        if active_count.(l) > 0 then begin
          rem_cap.(l) <- rem_cap.(l) -. (active_weight.(l) *. d);
          if rem_cap.(l) < 0. then rem_cap.(l) <- 0.
        end
      done;
      (* Links saturated at the new level; the argmin link is saturated by
         construction even if rounding left it epsilon above zero. *)
      Array.fill saturated 0 n_links false;
      saturated.(!argmin) <- true;
      for l = 0 to n_links - 1 do
        if active_count.(l) > 0 && rem_cap.(l) <= 1e-9 *. caps.(l) then
          saturated.(l) <- true
      done;
      let froze_any = ref false in
      for i = 0 to n_flows - 1 do
        if not frozen.(i) then begin
          let path = paths.(i) in
          let hit = ref (-1) in
          for k = 0 to Array.length path - 1 do
            let l = path.(k) in
            if saturated.(l) && !hit = -1 then hit := l
          done;
          if !hit >= 0 then begin
            frozen.(i) <- true;
            froze_any := true;
            bottleneck.(i) <- !hit;
            fair_share.(i) <- !level;
            rates.(i) <- weights.(i) *. !level;
            let w = weights.(i) in
            for k = 0 to Array.length path - 1 do
              let l = path.(k) in
              active_weight.(l) <- active_weight.(l) -. w;
              active_count.(l) <- active_count.(l) - 1
            done;
            decr n_active
          end
        end
      done;
      (* The argmin link has at least one unfrozen flow crossing it, so a
         freeze must have happened; assert the loop variant. *)
      assert !froze_any
    end
  done;
  { rates; bottleneck; fair_share }

let maxmin problem ~weights =
  water_fill ~caps:(Problem.caps problem)
    ~paths:(Array.init (Problem.n_flows problem) (Problem.flow_path problem))
    ~weights

let is_maxmin ~caps ~paths ~weights rates =
  let tol = 1e-6 in
  validate ~caps ~paths ~weights;
  let n_links = Array.length caps in
  let loads = Array.make n_links 0. in
  Array.iteri
    (fun i path -> Array.iter (fun l -> loads.(l) <- loads.(l) +. rates.(i)) path)
    paths;
  let feasible =
    Array.for_all (fun x -> x >= -1e-9) rates
    &&
    let ok = ref true in
    for l = 0 to n_links - 1 do
      if loads.(l) > caps.(l) *. (1. +. tol) then ok := false
    done;
    !ok
  in
  (* Max share of any flow on link l, normalized by weight. *)
  let max_share = Array.make n_links 0. in
  Array.iteri
    (fun i path ->
      let share = rates.(i) /. weights.(i) in
      Array.iter
        (fun l -> if share > max_share.(l) then max_share.(l) <- share)
        path)
    paths;
  let has_bottleneck i =
    let share = rates.(i) /. weights.(i) in
    Array.exists
      (fun l ->
        loads.(l) >= caps.(l) *. (1. -. tol)
        && share >= max_share.(l) *. (1. -. tol))
      paths.(i)
  in
  feasible
  &&
  let ok = ref true in
  Array.iteri (fun i _ -> if not (has_bottleneck i) then ok := false) paths;
  !ok

let step problem params ~prices ~rates ~weights =
  let w = flow_weights problem ~prices ~prev_rates:rates in
  Array.blit w 0 weights 0 (Array.length w);
  let x = (maxmin problem ~weights).rates in
  Array.blit x 0 rates 0 (Array.length x);
  let p = price_update problem params ~prices ~rates in
  Array.blit p 0 prices 0 (Array.length p)

(* Rates induced by prices for a single-path problem (Eq. 3). *)
let rates_of_prices problem ~prices =
  Array.init (Problem.n_flows problem) (fun i ->
      let u = Problem.group_utility problem (Problem.flow_group problem i) in
      Utility.rate_from_price u (path_price problem ~prices i))

(* U(x) of Table 1's alpha-fair rows at x floored at 1e-12, the floor
   [Utility.deriv] applies. *)
let utility_value u x =
  let x = Float.max x 1e-12 in
  match u with
  | Utility.Log { weight } -> weight *. log x
  | Utility.Power { alpha; walpha; _ } -> walpha *. (x ** (1. -. alpha)) /. (1. -. alpha)
  | Utility.Opaque _ -> invalid_arg "Reference.utility_value: opaque utility"

(* Dual objective: q(p) = sum_i [U(x_i(p)) - x_i(p) P_i] + sum_l p_l c_l. *)
let dual_objective problem ~prices =
  let rates = rates_of_prices problem ~prices in
  let total = ref 0. in
  for i = 0 to Problem.n_flows problem - 1 do
    let u = Problem.group_utility problem (Problem.flow_group problem i) in
    let price = path_price problem ~prices i in
    total := !total +. utility_value u rates.(i) -. (rates.(i) *. price)
  done;
  let caps = Problem.caps problem in
  Array.iteri (fun l p -> total := !total +. (p *. caps.(l))) prices;
  !total

let solve_dual ?(tol = 1e-8) ?(max_iters = 300_000) problem =
  if not (Problem.is_single_path problem) then
    invalid_arg "Reference.solve_dual: multipath problems are not supported";
  let n_links = Problem.n_links problem in
  let caps = Problem.caps problem in
  (* Seed prices as in xWI so the first iterate is well-scaled. *)
  let _, prices = Xwi_core.seed problem in
  let mean_price =
    let s = Array.fold_left ( +. ) 0. prices in
    Float.max (s /. float_of_int n_links) 1e-12
  in
  let mean_cap = Array.fold_left ( +. ) 0. caps /. float_of_int n_links in
  let step = ref (mean_price /. mean_cap) in
  let obj = ref (dual_objective problem ~prices) in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < max_iters do
    incr iterations;
    let loads = link_loads problem ~rates:(rates_of_prices problem ~prices) in
    let grad = Array.init n_links (fun l -> caps.(l) -. loads.(l)) in
    (* Backtracking projected gradient step. *)
    let accepted = ref false in
    let tries = ref 0 in
    while (not !accepted) && !tries < 80 do
      incr tries;
      let candidate =
        Array.init n_links (fun l -> Float.max 0. (prices.(l) -. (!step *. grad.(l))))
      in
      let move =
        let acc = ref 0. in
        Array.iteri
          (fun l p ->
            let d = p -. prices.(l) in
            acc := !acc +. (d *. d))
          candidate;
        !acc
      in
      let cand_obj = dual_objective problem ~prices:candidate in
      if cand_obj <= !obj -. (0.25 /. !step *. move) || Float.equal move 0. then begin
        Array.blit candidate 0 prices 0 n_links;
        obj := cand_obj;
        accepted := true;
        step := !step *. 1.3
      end
      else step := !step /. 2.
    done;
    if !iterations mod 25 = 0 || !iterations = 1 then begin
      let rates = rates_of_prices problem ~prices in
      if Kkt.worst (Kkt.check problem ~rates ~prices) < tol then converged := true
    end
  done;
  let rates = rates_of_prices problem ~prices in
  let kkt = Kkt.check problem ~rates ~prices in
  if Kkt.worst kkt > tol then
    raise
      (Oracle.Did_not_converge
         (Format.asprintf "Reference.solve_dual: after %d iterations, %a"
            !iterations Kkt.pp kkt));
  {
    Oracle.rates;
    group_rates =
      Array.init (Problem.n_groups problem) (fun g -> group_rate problem ~rates g);
    prices;
    iterations = !iterations;
    kkt;
  }
