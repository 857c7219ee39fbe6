module Xwi_core = Nf_num.Xwi_core
module Trace = Nf_util.Trace

let make ?(params = Xwi_core.default_params)
    ?(interval = Nf_num.Price_law.xwi_interval) problem =
  let problem = ref problem in
  let state = ref (Xwi_core.at_seed !problem) in
  let iter = ref 0 in
  let step () =
    Xwi_core.step !problem params !state;
    incr iter;
    let tr = Trace.default () in
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
    state := Xwi_core.resize ~polish:false p !state;
    problem := p
  in
  {
    Scheme.name = "NUMFabric";
    interval;
    step;
    rates;
    rates_view;
    rebind;
    observe_remaining = Scheme.nop_observe;
  }
