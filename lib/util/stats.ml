let ensure_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample array")

let mean xs =
  ensure_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let percentile xs p =
  ensure_nonempty "Stats.percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0, 100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.

type boxplot = {
  p25 : float;
  p50 : float;
  p75 : float;
  whisker_lo : float;
  whisker_hi : float;
}

let boxplot xs =
  ensure_nonempty "Stats.boxplot" xs;
  let p25 = percentile xs 25. and p50 = median xs and p75 = percentile xs 75. in
  let iqr = p75 -. p25 in
  let lo_bound = p25 -. (1.5 *. iqr) and hi_bound = p75 +. (1.5 *. iqr) in
  let whisker_lo = ref infinity and whisker_hi = ref neg_infinity in
  Array.iter
    (fun x ->
      if x >= lo_bound && x < !whisker_lo then whisker_lo := x;
      if x <= hi_bound && x > !whisker_hi then whisker_hi := x)
    xs;
  { p25; p50; p75; whisker_lo = !whisker_lo; whisker_hi = !whisker_hi }

let jain_index xs =
  ensure_nonempty "Stats.jain_index" xs;
  let s = Array.fold_left ( +. ) 0. xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  if s2 = 0. then 1. else s *. s /. (float_of_int (Array.length xs) *. s2)
