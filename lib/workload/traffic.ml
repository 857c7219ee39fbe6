module Rng = Nf_util.Rng

type pair = { src : int; dst : int }

let random_pairs rng ~hosts ~n =
  if Array.length hosts < 2 then invalid_arg "Traffic.random_pairs: need >= 2 hosts";
  Array.init n (fun _ ->
      let src = Rng.pick rng hosts in
      let rec pick_dst () =
        let dst = Rng.pick rng hosts in
        if dst = src then pick_dst () else dst
      in
      { src; dst = pick_dst () })

let half_permutation rng ~hosts =
  let n = Array.length hosts in
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Traffic.half_permutation: need an even host count >= 2";
  let half = n / 2 in
  let targets = Rng.permutation rng half in
  Array.init half (fun i -> { src = hosts.(i); dst = hosts.(half + targets.(i)) })

type arrival = { at : float; size : float; pair : pair }

let poisson_arrivals rng ~pairs ~size_dist ~rate_per_sec ~duration =
  if not (rate_per_sec > 0.) then
    invalid_arg "Traffic.poisson_arrivals: rate must be positive";
  if Array.length pairs = 0 then
    invalid_arg "Traffic.poisson_arrivals: no pairs";
  let rec gen t acc =
    let t = t +. Rng.exponential rng ~mean:(1. /. rate_per_sec) in
    if t > duration then List.rev acc
    else begin
      let arrival =
        { at = t; size = Size_dist.sample size_dist rng; pair = Rng.pick rng pairs }
      in
      gen t (arrival :: acc)
    end
  in
  gen 0. []

let load_to_rate ~load ~n_hosts ~host_capacity ~mean_size =
  if not (load > 0.) then invalid_arg "Traffic.load_to_rate: load must be positive";
  load *. float_of_int n_hosts *. host_capacity /. (8. *. mean_size)
