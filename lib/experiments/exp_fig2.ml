(* Figure 2: the bandwidth-function example. Two flows with the curves of
   Fig. 2 share one link; the BwE water-filling allocation is computed at
   10 and 25 Gbps and cross-checked against the NUM solution with the
   derived utility (Eq. 2, alpha = 5). *)

module Bf = Nf_num.Bandwidth_function
module Problem = Nf_num.Problem
module Oracle = Nf_num.Oracle

let gbps = Nf_util.Units.gbps

type point = {
  capacity : float;
  waterfill : float array;  (* expected allocation per the BwE semantics *)
  num : float array;  (* allocation from the NUM utility *)
  fair_share : float;
}

type t = point list

let run () =
  let alpha = 5. in
  let bfs = [| Bf.fig2_flow1 (); Bf.fig2_flow2 () |] in
  let point capacity =
    let waterfill, fair_share = Bf.single_link_allocation ~bfs ~capacity in
    let groups =
      Array.to_list
        (Array.map (fun bf -> Problem.single_path (Bf.utility bf ~alpha) [| 0 |]) bfs)
    in
    let num =
      (Oracle.solve ~tol:1e-4 (Problem.create ~caps:[| capacity |] ~groups))
        .Oracle.group_rates
    in
    { capacity; waterfill; num; fair_share }
  in
  [ point (gbps 10.); point (gbps 25.) ]

let report t =
  Report.make
    ~title:
      "Figure 2: bandwidth functions on one link (water-filling vs NUM with \
       the derived utility)"
    ~columns:
      [
        "capacity_gbps";
        "waterfill_flow1_gbps";
        "waterfill_flow2_gbps";
        "fair_share";
        "num_flow1_gbps";
        "num_flow2_gbps";
      ]
    ~notes:
      [ "paper: at 10 Gbps flow1 takes all; at 25 Gbps flow1 = 15, flow2 = 10" ]
    (List.map
       (fun p ->
         [
           Report.float (p.capacity /. 1e9);
           Report.float (p.waterfill.(0) /. 1e9);
           Report.float (p.waterfill.(1) /. 1e9);
           Report.float p.fair_share;
           Report.float (p.num.(0) /. 1e9);
           Report.float (p.num.(1) /. 1e9);
         ])
       t)
