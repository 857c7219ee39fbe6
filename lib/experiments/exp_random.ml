(* Randomized validation of the xWI dynamical system (§4.2: "we have
   conducted extensive numerical simulations of the algorithm, and found
   that xWI converges to the NUM optimal solution across a wide range of
   randomly generated topologies and flow patterns" — the experiments the
   paper defers to its technical report).

   For each alpha we draw random instances (random link sets, capacities,
   paths, weights; a share of instances also gets random multipath groups),
   run the xWI iteration cold from the standard initialization, and record
   how many iterations the KKT residual needs to fall below 1e-4. Every
   single-path instance is cross-checked against the independent dual
   solver. *)

module Problem = Nf_num.Problem
module Utility = Nf_num.Utility
module Xwi = Nf_num.Xwi_core
module Rng = Nf_util.Rng

type alpha_stats = {
  alpha : float;
  instances : int;
  converged : int;
  iters_p50 : float;
  iters_p95 : float;
  max_rate_error_vs_dual : float;  (* nan if no single-path cross-checks *)
  dual_checks : int;
}

type t = alpha_stats list

let random_instance rng ~alpha ~multipath =
  let n_links = 3 + Rng.int rng 8 in
  let caps = Array.init n_links (fun _ -> Rng.uniform rng ~lo:1e9 ~hi:1e10) in
  let n_groups = 3 + Rng.int rng 12 in
  let random_path () =
    let len = 1 + Rng.int rng (Stdlib.min 4 n_links) in
    Array.sub (Rng.permutation rng n_links) 0 len
  in
  let groups =
    List.init n_groups (fun _ ->
        let weight = Rng.uniform rng ~lo:0.25 ~hi:4. in
        let utility = Utility.alpha_fair ~weight ~alpha () in
        let n_sub = if multipath && Rng.bool rng then 1 + Rng.int rng 3 else 1 in
        { Problem.utility; paths = List.init n_sub (fun _ -> random_path ()) })
  in
  Problem.create ~caps ~groups

let run ?(seed = 17) ?(instances_per_alpha = 40)
    ?(alphas = [ 0.25; 0.5; 1.; 2.; 4. ]) ?(tol = 1e-4) ?(max_iters = 3000) () =
  List.map
    (fun alpha ->
      let rng = Rng.create ~seed:(seed + int_of_float (alpha *. 100.)) in
      let iters = ref [] in
      let converged = ref 0 in
      let max_err = ref Float.nan in
      let dual_checks = ref 0 in
      for k = 1 to instances_per_alpha do
        let multipath = k mod 3 = 0 in
        let problem = random_instance rng ~alpha ~multipath in
        let state = Xwi.init problem in
        let run = Xwi.run_until_kkt ~tol ~max_iters problem Xwi.default_params state in
        if run.Xwi.converged then begin
          incr converged;
          iters := float_of_int run.Xwi.iterations :: !iters;
          if Problem.is_single_path problem then begin
            match Nf_num.Oracle.solve_dual ~tol:1e-6 problem with
            | dual ->
              incr dual_checks;
              Array.iteri
                (fun i x ->
                  let e =
                    Float.abs (x -. state.Xwi.rates.(i))
                    /. Float.max dual.Nf_num.Oracle.rates.(i) 1.
                  in
                  if Float.is_nan !max_err || e > !max_err then max_err := e)
                dual.Nf_num.Oracle.rates
            | exception Nf_num.Oracle.Did_not_converge _ -> ()
          end
        end
      done;
      let iters = Array.of_list !iters in
      {
        alpha;
        instances = instances_per_alpha;
        converged = !converged;
        iters_p50 =
          (if Array.length iters > 0 then Nf_util.Stats.median iters else Float.nan);
        iters_p95 =
          (if Array.length iters > 0 then Nf_util.Stats.percentile iters 95.
           else Float.nan);
        max_rate_error_vs_dual = !max_err;
        dual_checks = !dual_checks;
      })
    alphas

let report t =
  Report.make
    ~title:
      "Randomized xWI validation (random topologies/flows/weights; KKT \
       tolerance 1e-4)"
    ~columns:
      [
        "alpha";
        "instances";
        "converged";
        "iters_p50";
        "iters_p95";
        "max_rate_error_vs_dual";
        "dual_checks";
      ]
    ~notes:
      [
        "paper / tech report: xWI converges to the NUM optimum across \
         randomly generated instances";
      ]
    (List.map
       (fun s ->
         [
           Report.float s.alpha;
           Report.int s.instances;
           Report.int s.converged;
           Report.float s.iters_p50;
           Report.float s.iters_p95;
           Report.float s.max_rate_error_vs_dual;
           Report.int s.dual_checks;
         ])
       t)
