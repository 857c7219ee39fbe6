module Problem = Nf_num.Problem
module Xwi_core = Nf_num.Xwi_core
module Trace = Nf_util.Trace

let make_with_prices ?(params = Xwi_core.default_params)
    ?(interval = Nf_num.Price_law.xwi_interval) ?trace ?pool ?diag problem =
  let problem = ref problem in
  let state = ref (Xwi_core.init ?pool !problem) in
  (* An explicit diag wins over whatever [init] auto-attached — but only
     while its dimensions still match: rebinding can change the flow
     count, and a mis-sized diag would index out of bounds. *)
  let apply_diag () =
    match diag with
    | None -> ()
    | Some d ->
      let n_links, n_flows = Nf_num.Diag.dims d in
      if
        n_links = Problem.n_links !problem
        && n_flows = Problem.n_flows !problem
      then Xwi_core.set_diag !state diag
  in
  apply_diag ();
  let iter = ref 0 in
  let step () =
    Xwi_core.step !problem params !state;
    incr iter;
    let tr = match trace with Some tr -> tr | None -> Trace.default () in
    if Trace.on tr Trace.XwiIter then
      Trace.emit tr Trace.XwiIter ~subject:0
        ~time:(float_of_int !iter *. interval)
        (float_of_int !iter)
  in
  let rates () = Array.copy !state.Xwi_core.rates in
  let rates_view () = !state.Xwi_core.rates in
  let rebind p =
    (* The carried start, never the polish: the scheme's own iterations
       from the old prices are what the experiments measure. *)
    state := Xwi_core.resize ?pool ~polish:false p !state;
    problem := p;
    apply_diag ()
  in
  let scheme =
    {
      Scheme.name = "NUMFabric";
      interval;
      step;
      rates;
      rates_view;
      rebind;
      observe_remaining = Scheme.nop_observe;
    }
  in
  (scheme, fun () -> Array.copy !state.Xwi_core.prices)

let make ?params ?interval ?trace ?pool ?diag problem =
  fst (make_with_prices ?params ?interval ?trace ?pool ?diag problem)
