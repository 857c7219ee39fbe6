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
