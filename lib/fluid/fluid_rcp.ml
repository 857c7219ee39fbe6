module Problem = Nf_num.Problem
module Price_law = Nf_num.Price_law

(* Eq. 16: x_i = (sum_l R_l^-alpha)^(-1/alpha), capped at the line rate. *)
let compute_rates problem ~alpha ~fair_rates =
  Array.init (Problem.n_flows problem) (fun i ->
      let acc = ref 0. in
      Array.iter
        (fun l -> acc := !acc +. (Float.max fair_rates.(l) 1e-3 ** -.alpha))
        (Problem.flow_path problem i);
      let x = !acc ** (-1. /. alpha) in
      Float.min x (Scheme.path_line_rate problem i))

let make ~alpha problem =
  if not (alpha > 0.) then invalid_arg "Fluid_rcp.make: alpha must be positive";
  let law = Price_law.rcp_table2 in
  (* Advertise the per-link equal share initially. *)
  let fair_rates =
    let inc = Problem.incidence problem in
    Array.mapi
      (fun l cap -> cap /. float_of_int (Stdlib.max (Nf_num.Incidence.link_degree inc l) 1))
      (Problem.caps problem)
  in
  Scheme.baseline ~name:"RCP*" ~unit_name:"Fluid_rcp"
    ~interval:law.Price_law.rcp_update_interval
    ~rates_of:(fun p fair_rates -> compute_rates p ~alpha ~fair_rates)
    ~update:(fun ~caps ~loads ~queues ->
      for l = 0 to Array.length fair_rates - 1 do
        fair_rates.(l) <-
          Price_law.rcp Price_law.rcp_fluid law ~cap:caps.(l) ~fair_rate:fair_rates.(l)
            ~rate:loads.(l) ~queue:queues.(l)
      done)
    fair_rates problem
