type t = { xs : float array; ys : float array }

let of_points pts =
  let n = List.length pts in
  if n < 2 then invalid_arg "Piecewise.of_points: need at least two points";
  let xs = Array.make n 0. and ys = Array.make n 0. in
  List.iteri
    (fun i (x, y) ->
      xs.(i) <- x;
      ys.(i) <- y)
    pts;
  for i = 1 to n - 1 do
    if not (xs.(i) > xs.(i - 1)) then
      invalid_arg "Piecewise.of_points: x must be strictly increasing";
    if ys.(i) < ys.(i - 1) then
      invalid_arg "Piecewise.of_points: y must be non-decreasing"
  done;
  { xs; ys }

let points f = Array.to_list (Array.map2 (fun x y -> (x, y)) f.xs f.ys)

let n_points f = Array.length f.xs

(* Index of the segment containing x: largest i with xs.(i) <= x, clamped to
   [0, n-2] so evaluation extends the first/last segment. *)
let segment_index f x =
  let n = n_points f in
  if x <= f.xs.(0) then 0
  else if x >= f.xs.(n - 1) then n - 2
  else begin
    let rec search lo hi =
      (* invariant: xs.(lo) <= x < xs.(hi) *)
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if f.xs.(mid) <= x then search mid hi else search lo mid
      end
    in
    search 0 (n - 1)
  end

let slope f i =
  (f.ys.(i + 1) -. f.ys.(i)) /. (f.xs.(i + 1) -. f.xs.(i))

let eval f x =
  let i = segment_index f x in
  f.ys.(i) +. (slope f i *. (x -. f.xs.(i)))

let strictly_increasing f =
  let ok = ref true in
  for i = 0 to n_points f - 2 do
    if not (f.ys.(i + 1) > f.ys.(i)) then ok := false
  done;
  !ok

let inverse f y =
  let n = n_points f in
  if y < f.ys.(0) then invalid_arg "Piecewise.inverse: value below range";
  if y > f.ys.(n - 1) then begin
    (* Extend the last segment; it must be rising to reach y. *)
    let s = slope f (n - 2) in
    if s <= 0. then invalid_arg "Piecewise.inverse: value above a flat tail";
    f.xs.(n - 1) +. ((y -. f.ys.(n - 1)) /. s)
  end
  else begin
    (* Smallest i with ys.(i) >= y, then invert on segment (i-1, i). *)
    let rec find i = if f.ys.(i) >= y then i else find (i + 1) in
    let i = find 0 in
    if i = 0 then f.xs.(0)
    else begin
      let s = slope f (i - 1) in
      if s = 0. then f.xs.(i - 1)
      else f.xs.(i - 1) +. ((y -. f.ys.(i - 1)) /. s)
    end
  end
