type t = {
  dist_name : string;
  sizes : float array;  (* strictly increasing, sizes.(0) is the minimum *)
  probs : float array;  (* non-decreasing, probs.(0) = 0, last = 1 *)
}

let of_cdf points =
  if points = [] then invalid_arg "Size_dist.of_cdf: empty CDF";
  (* Anchor the CDF at (min size or 1, 0) so every segment has two ends. *)
  let points =
    match points with
    | (s0, p0) :: _ when p0 > 0. -> (Float.min 1. (s0 /. 2.), 0.) :: points
    | _ -> points
  in
  let n = List.length points in
  let sizes = Array.make n 0. and probs = Array.make n 0. in
  List.iteri
    (fun i (s, p) ->
      sizes.(i) <- s;
      probs.(i) <- p)
    points;
  for i = 0 to n - 1 do
    if not (sizes.(i) > 0.) then invalid_arg "Size_dist.of_cdf: sizes must be positive";
    if i > 0 && not (sizes.(i) > sizes.(i - 1)) then
      invalid_arg "Size_dist.of_cdf: sizes must be strictly increasing";
    if i > 0 && probs.(i) < probs.(i - 1) then
      invalid_arg "Size_dist.of_cdf: probabilities must be non-decreasing";
    if probs.(i) < 0. || probs.(i) > 1. then
      invalid_arg "Size_dist.of_cdf: probabilities must lie in [0, 1]"
  done;
  if Float.abs (probs.(n - 1) -. 1.) > 1e-9 then
    invalid_arg "Size_dist.of_cdf: last probability must be 1";
  probs.(n - 1) <- 1.;
  { dist_name = "custom"; sizes; probs }

let with_name name t = { t with dist_name = name }

let name t = t.dist_name

(* Web-search workload (DCTCP / pFabric): heavy-tailed, ~53% of flows below
   100 KB, 30% above 1 MB carrying ~95% of the bytes. *)
let websearch =
  with_name "websearch"
    (of_cdf
       [
         (6_000., 0.15);
         (13_000., 0.28);
         (19_000., 0.35);
         (33_000., 0.40);
         (53_000., 0.47);
         (133_000., 0.56);
         (667_000., 0.67);
         (1_333_000., 0.72);
         (3_333_000., 0.82);
         (6_667_000., 0.9);
         (20_000_000., 0.97);
         (30_000_000., 1.0);
       ])

(* Enterprise workload (CONGA): mice-dominated, ~70% of flows within 1-2
   packets and ~95% below 10 KB, with a thin but heavy byte tail. *)
let enterprise =
  with_name "enterprise"
    (of_cdf
       [
         (1_500., 0.45);
         (3_000., 0.70);
         (5_000., 0.80);
         (8_000., 0.90);
         (10_000., 0.95);
         (30_000., 0.97);
         (100_000., 0.98);
         (1_000_000., 0.99);
         (10_000_000., 1.0);
       ])

let sample t rng =
  let u = Nf_util.Rng.float rng 1. in
  let n = Array.length t.probs in
  (* Find the first index with probs.(i) >= u; interpolate on (i-1, i). *)
  let rec find i = if i >= n - 1 || t.probs.(i) >= u then i else find (i + 1) in
  let i = find 0 in
  let size =
    if i = 0 then t.sizes.(0)
    else begin
      let p0 = t.probs.(i - 1) and p1 = t.probs.(i) in
      let s0 = t.sizes.(i - 1) and s1 = t.sizes.(i) in
      if p1 <= p0 then s1 else s0 +. ((u -. p0) /. (p1 -. p0) *. (s1 -. s0))
    end
  in
  Float.max 1. size

let mean t =
  let acc = ref 0. in
  for i = 1 to Array.length t.probs - 1 do
    let mass = t.probs.(i) -. t.probs.(i - 1) in
    acc := !acc +. (mass *. 0.5 *. (t.sizes.(i) +. t.sizes.(i - 1)))
  done;
  !acc
