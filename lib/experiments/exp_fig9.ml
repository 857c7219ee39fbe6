(* Figure 9: two flows with the Fig. 2 bandwidth functions compete on a
   link whose capacity sweeps 5 -> 35 Gbps. NUMFabric (fluid xWI with the
   derived utilities, alpha = 5) should track the expected BwE allocation
   at every capacity. *)

module Bf = Nf_num.Bandwidth_function
module Problem = Nf_num.Problem

let gbps = Nf_util.Units.gbps

type point = {
  capacity : float;
  expected : float array;
  achieved : float array;  (* fluid NUMFabric rates *)
}

type t = point list

let run ?(alpha = 5.) ?(capacities = [ 5.; 10.; 15.; 17.5; 20.; 25.; 30.; 35. ]) () =
  let bfs = [| Bf.fig2_flow1 (); Bf.fig2_flow2 () |] in
  List.map
    (fun cap_gbps ->
      let capacity = gbps cap_gbps in
      let expected, _ = Bf.single_link_allocation ~bfs ~capacity in
      let groups =
        Array.to_list
          (Array.map
             (fun bf -> Problem.single_path (Bf.utility bf ~alpha) [| 0 |])
             bfs)
      in
      let problem = Problem.create ~caps:[| capacity |] ~groups in
      let scheme = Nf_fluid.Fluid_xwi.make problem in
      (* 200 iterations = 6 ms of protocol time: far past convergence. *)
      for _ = 1 to 200 do
        scheme.Nf_fluid.Scheme.step ()
      done;
      { capacity; expected; achieved = scheme.Nf_fluid.Scheme.rates () })
    capacities

let max_rel_error t =
  List.fold_left
    (fun acc p ->
      Array.fold_left Float.max acc
        (Array.mapi
           (fun i e ->
             if e < 1e6 then 0.
             else Float.abs (p.achieved.(i) -. e) /. e)
           p.expected))
    0. t

let report t =
  Report.make
    ~title:
      "Figure 9: bandwidth-function allocation vs link capacity (expected | \
       NUMFabric fluid)"
    ~columns:
      [
        "capacity_gbps";
        "flow1_expected_gbps";
        "flow1_achieved_gbps";
        "flow2_expected_gbps";
        "flow2_achieved_gbps";
      ]
    ~notes:
      [
        Printf.sprintf "max relative error: %.2f%%" (100. *. max_rel_error t);
        "paper: allocation almost identical to the expected one at all \
         capacities";
      ]
    (List.map
       (fun p ->
         [
           Report.float (p.capacity /. 1e9);
           Report.float (p.expected.(0) /. 1e9);
           Report.float (p.achieved.(0) /. 1e9);
           Report.float (p.expected.(1) /. 1e9);
           Report.float (p.achieved.(1) /. 1e9);
         ])
       t)
