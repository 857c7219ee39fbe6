(* All-float, so the compiler stores the fields flat and an update
   neither boxes a float nor builds a [Some]. [set] is 1. once a sample
   has been blended in and 0. before (a float flag keeps the record
   all-float). *)
type timed = {
  tau : float;
  mutable tv : float;
  mutable last : float;
  mutable set : float;
}

let timed ~tau =
  if not (tau > 0.) then invalid_arg "Ewma.timed: tau must be positive";
  { tau; tv = 0.; last = neg_infinity; set = 0. }

let[@inline] timed_is_set f = f.set > 0.

let[@inline] timed_update f ~now sample =
  if not (timed_is_set f) then begin
    f.tv <- sample;
    f.last <- now;
    f.set <- 1.
  end
  else begin
    let dt = Fcmp.fmax 0. (now -. f.last) in
    let w = 1. -. exp (-.dt /. f.tau) in
    f.tv <- ((1. -. w) *. f.tv) +. (w *. sample);
    f.last <- Fcmp.fmax now f.last
  end

let timed_value f = if timed_is_set f then Some f.tv else None

let[@inline never] timed_unset () =
  invalid_arg "Ewma.timed_value_exn: no samples yet"

let[@inline] timed_value_exn f =
  if not (timed_is_set f) then timed_unset ();
  f.tv

let rise_time_90 ~tau = log 10. *. tau
