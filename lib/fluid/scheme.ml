type t = {
  name : string;
  interval : float;
  step : unit -> unit;
  rates : unit -> float array;
  rates_view : unit -> float array;
  rebind : Nf_num.Problem.t -> unit;
  observe_remaining : float array -> unit;
}

let nop_observe (_ : float array) = ()

let path_line_rate problem i =
  let caps = Nf_num.Problem.caps problem in
  Array.fold_left
    (fun acc l -> Float.min acc caps.(l))
    infinity (Nf_num.Problem.flow_path problem i)

let baseline ~name ~unit_name ~interval ~rates_of ~update links problem =
  let single_path fn p =
    if not (Nf_num.Problem.is_single_path p) then
      invalid_arg (unit_name ^ "." ^ fn ^ ": multipath problems are not supported")
  in
  single_path "make" problem;
  let module Trace = Nf_util.Trace in
  let n_links = Nf_num.Problem.n_links problem in
  let problem = ref problem and iter = ref 0 in
  let queues = Array.make n_links 0. (* bytes *) and loads = Array.make n_links 0. in
  let rates = ref (rates_of !problem links) in
  let step () =
    let p = !problem in
    let caps = Nf_num.Problem.caps p in
    let x = rates_of p links in
    rates := x;
    Nf_num.Problem.link_loads_into p ~rates:x loads;
    for l = 0 to n_links - 1 do
      let excess = loads.(l) -. caps.(l) in
      queues.(l) <- Float.max 0. (queues.(l) +. (excess *. interval /. 8.))
    done;
    update ~caps ~loads ~queues;
    incr iter;
    let tr = Trace.default () in
    if Trace.on tr Trace.PriceUpdate then begin
      let time = float_of_int !iter *. interval in
      Array.iteri (fun l v -> Trace.emit tr Trace.PriceUpdate ~subject:l ~time v) links
    end
  in
  let rebind p =
    if Nf_num.Problem.n_links p <> n_links then
      invalid_arg (unit_name ^ ".rebind: link count changed");
    single_path "rebind" p;
    problem := p;
    rates := rates_of p links
  in
  {
    name;
    interval;
    step;
    rates = (fun () -> Array.copy !rates);
    rates_view = (fun () -> !rates);
    rebind;
    observe_remaining = nop_observe;
  }
