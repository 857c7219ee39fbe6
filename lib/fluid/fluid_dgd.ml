module Problem = Nf_num.Problem
module Utility = Nf_num.Utility
module Price_law = Nf_num.Price_law

(* Price magnitude the gains are normalized by: the mean marginal utility
   per hop at the equal-weight max-min allocation [rates]. *)
let price_scale problem ~rates =
  let acc = ref 0. in
  let n = Problem.n_flows problem in
  for i = 0 to n - 1 do
    let u = Problem.group_utility problem (Problem.flow_group problem i) in
    acc :=
      !acc
      +. Utility.deriv u (Float.max rates.(i) 1e-12)
         /. float_of_int (Problem.path_len problem i)
  done;
  Float.max (!acc /. float_of_int (Stdlib.max n 1)) 1e-30

let compute_rates problem ~prices =
  Array.init (Problem.n_flows problem) (fun i ->
      let u = Problem.group_utility problem (Problem.flow_group problem i) in
      Float.min
        (Utility.rate_from_price u (Problem.path_price problem ~prices i))
        (Scheme.path_line_rate problem i))

let make problem =
  (* Start from the seed prices xWI also uses so that the comparison is
     about dynamics, not initialization. *)
  let seed_rates, prices = Nf_num.Xwi_core.seed problem in
  let law =
    {
      Price_law.dgd_table2 with
      Price_law.dgd_price_scale = price_scale problem ~rates:seed_rates;
    }
  in
  Scheme.baseline ~name:"DGD" ~unit_name:"Fluid_dgd"
    ~interval:law.Price_law.dgd_update_interval
    ~rates_of:(fun p prices -> compute_rates p ~prices)
    ~update:(fun ~caps ~loads ~queues ->
      for l = 0 to Array.length prices - 1 do
        prices.(l) <-
          Price_law.dgd law ~cap:caps.(l) ~price:prices.(l) ~rate:loads.(l)
            ~queue:queues.(l)
      done)
    prices problem
