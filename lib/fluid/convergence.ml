type criteria = {
  within : float;
  fraction : float;
  sustain : float;
  max_time : float;
}

let paper_criteria =
  { within = 0.1; fraction = 0.95; sustain = 5e-3; max_time = 50e-3 }

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

type outcome = { time : float option; iterations_run : int }

let measure ?(criteria = paper_criteria) (scheme : Scheme.t) ~target =
  let max_iters =
    int_of_float (ceil (criteria.max_time /. scheme.Scheme.interval))
  in
  let sustain_iters =
    int_of_float (ceil (criteria.sustain /. scheme.Scheme.interval))
  in
  (* entered = iteration index at which the current in-tolerance stretch
     started, or -1 when currently out of tolerance. *)
  let rec loop iter entered =
    (* Observation is per-iteration and read-only: the live view avoids one
       rate-array copy per iteration (the fig4a sweep runs millions). *)
    let inside =
      fraction_within ~target ~within:criteria.within
        (scheme.Scheme.rates_view ())
      >= criteria.fraction
    in
    let entered = if inside then (if entered < 0 then iter else entered) else -1 in
    if entered >= 0 && iter - entered >= sustain_iters then
      {
        time = Some (float_of_int entered *. scheme.Scheme.interval);
        iterations_run = iter;
      }
    else if iter >= max_iters then { time = None; iterations_run = iter }
    else begin
      scheme.Scheme.step ();
      loop (iter + 1) entered
    end
  in
  loop 0 (-1)
