type criteria = {
  within : float;
  fraction : float;
  sustain : float;
  max_time : float;
}

let paper_criteria =
  { within = 0.1; fraction = 0.95; sustain = 5e-3; max_time = 50e-3 }

(* Fraction of flows whose rate is within [within] of the target. *)
let fraction_within ~target ~within rates =
  let n = Array.length target in
  if n = 0 then 1.
  else begin
    let inside = ref 0 in
    for i = 0 to n - 1 do
      if Nf_util.Fcmp.within_fraction ~frac:within ~actual:rates.(i) ~target:target.(i)
      then incr inside
    done;
    float_of_int !inside /. float_of_int n
  end

let periods x ~period = int_of_float (ceil (x /. period))

let sustained criteria ~period ~last ~target sample =
  let sustain = periods criteria.sustain ~period in
  (* entered = index at which the current inside stretch started, or -1
     when the last sample was outside. *)
  let rec loop i entered =
    if i > last then None
    else begin
      let inside =
        fraction_within ~target ~within:criteria.within (sample i)
        >= criteria.fraction
      in
      let entered = if inside then (if entered < 0 then i else entered) else -1 in
      if entered >= 0 && i - entered >= sustain then Some entered
      else loop (i + 1) entered
    end
  in
  loop 0 (-1)

let measure ?(criteria = paper_criteria) (scheme : Scheme.t) ~target =
  let interval = scheme.Scheme.interval in
  (* Observation is per-iteration and read-only: the live view avoids one
     rate-array copy per iteration (the fig4a sweep runs millions). *)
  let sample i =
    if i > 0 then scheme.Scheme.step ();
    scheme.Scheme.rates_view ()
  in
  sustained criteria ~period:interval
    ~last:(periods criteria.max_time ~period:interval)
    ~target sample
  |> Option.map (fun entered -> float_of_int entered *. interval)
