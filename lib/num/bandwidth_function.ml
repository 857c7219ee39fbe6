module Piecewise = Nf_util.Piecewise

(* B : fair share -> bandwidth, strictly increasing; F = B^-1 is
   [Piecewise.inverse]. *)
type t = Piecewise.t

let create curve =
  (match Piecewise.points curve with
  | (x0, y0) :: _ when Float.equal x0 0. && Float.equal y0 0. -> ()
  | _ -> invalid_arg "Bandwidth_function.create: curve must start at (0, 0)");
  if not (Piecewise.strictly_increasing curve) then
    invalid_arg
      "Bandwidth_function.create: curve must be strictly increasing (use create_strict)";
  curve

let create_strict ?slope_floor curve =
  (match Piecewise.points curve with
  | (x0, y0) :: _ when Float.equal x0 0. && Float.equal y0 0. -> ()
  | _ -> invalid_arg "Bandwidth_function.create_strict: curve must start at (0, 0)");
  let pts = Piecewise.points curve in
  let max_y = List.fold_left (fun acc (_, y) -> Float.max acc y) 0. pts in
  let floor =
    match slope_floor with
    | Some s -> s
    | None -> Float.max (1e-6 *. max_y) 1e-6
  in
  let rec rebuild prev_x prev_y = function
    | [] -> []
    | (x, y) :: rest ->
      let min_y = prev_y +. (floor *. (x -. prev_x)) in
      let y' = Float.max y min_y in
      (x, y') :: rebuild x y' rest
  in
  let fixed =
    match pts with
    | [] -> invalid_arg "Bandwidth_function.create_strict: empty curve"
    | (x0, y0) :: rest -> (x0, y0) :: rebuild x0 y0 rest
  in
  create (Piecewise.of_points fixed)

let bandwidth t f =
  if f < 0. then invalid_arg "Bandwidth_function.bandwidth: negative fair share";
  Piecewise.eval t f

let fair_share t x =
  if x < 0. then invalid_arg "Bandwidth_function.fair_share: negative bandwidth";
  if Float.equal x 0. then 0. else Piecewise.inverse t x

let utility t ~alpha =
  if not (alpha > 0.) then
    invalid_arg "Bandwidth_function.utility: alpha must be positive";
  let max_y =
    List.fold_left (fun acc (_, y) -> Float.max acc y) 0. (Piecewise.points t)
  in
  (* F(x) is 0 at x = 0, where F^-α diverges. *)
  let x_floor = Float.max (1e-9 *. max_y) 1e-30 in
  let deriv x =
    let fs = fair_share t (Float.max x x_floor) in
    Float.max fs 1e-30 ** -.alpha
  in
  let inv_deriv p = bandwidth t (p ** (-1. /. alpha)) in
  Utility.make ~deriv ~inv_deriv

let max_fair_share = 1e9

let single_link_allocation ~bfs ~capacity =
  if Array.length bfs = 0 then
    invalid_arg "Bandwidth_function.single_link_allocation: no flows";
  if not (capacity > 0.) then
    invalid_arg "Bandwidth_function.single_link_allocation: capacity must be positive";
  let total f = Array.fold_left (fun acc bf -> acc +. bandwidth bf f) 0. bfs in
  if total max_fair_share <= capacity then
    (Array.map (fun bf -> bandwidth bf max_fair_share) bfs, max_fair_share)
  else begin
    let lo = ref 0. and hi = ref 1. in
    while total !hi < capacity do
      hi := !hi *. 2.
    done;
    for _ = 1 to 100 do
      let mid = 0.5 *. (!lo +. !hi) in
      if total mid <= capacity then lo := mid else hi := mid
    done;
    (Array.map (fun bf -> bandwidth bf !lo) bfs, !lo)
  end

let gbps = Nf_util.Units.gbps

let fig2_flow1 () =
  create (Piecewise.of_points [ (0., 0.); (2., gbps 10.); (2.5, gbps 15.) ])

let fig2_flow2 () =
  create_strict
    (Piecewise.of_points
       [ (0., 0.); (2., 0.); (2.5, gbps 10.); (100., gbps 10.) ])
