module Problem = Nf_num.Problem

let allocate ~caps ~paths ~remaining =
  let n = Array.length paths in
  if Array.length remaining <> n then
    invalid_arg "Srpt.allocate: remaining/paths length mismatch";
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare remaining.(a) remaining.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let residual = Array.copy caps in
  let rates = Array.make n 0. in
  Array.iter
    (fun i ->
      let r =
        Array.fold_left (fun acc l -> Float.min acc residual.(l)) infinity paths.(i)
      in
      let r = Float.max r 0. in
      rates.(i) <- r;
      Array.iter (fun l -> residual.(l) <- residual.(l) -. r) paths.(i))
    order;
  rates

let make problem =
  if not (Problem.is_single_path problem) then
    invalid_arg "Srpt.make: multipath problems are not supported";
  let problem = ref problem in
  let n_links = Problem.n_links !problem in
  let remaining = ref (Array.make (Problem.n_flows !problem) 1.) in
  let compute () =
    let p = !problem in
    let paths = Array.init (Problem.n_flows p) (Problem.flow_path p) in
    allocate ~caps:(Problem.caps p) ~paths ~remaining:!remaining
  in
  let rates = ref (compute ()) in
  let step () = rates := compute () in
  let rebind p =
    if Problem.n_links p <> n_links then
      invalid_arg "Srpt.rebind: link count changed";
    if not (Problem.is_single_path p) then
      invalid_arg "Srpt.rebind: multipath problems are not supported";
    problem := p;
    remaining := Array.make (Problem.n_flows p) 1.;
    rates := compute ()
  in
  let observe_remaining r =
    if Array.length r <> Problem.n_flows !problem then
      invalid_arg "Srpt.observe_remaining: length mismatch";
    remaining := Array.copy r;
    rates := compute ()
  in
  {
    Scheme.name = "pFabric(SRPT)";
    interval = 16e-6;
    step;
    rates = (fun () -> Array.copy !rates);
    rates_view = (fun () -> !rates);
    rebind;
    observe_remaining;
  }
