(* Table 1: the utility-function menu. For each allocation objective we
   solve a small instance with the Oracle and print the allocation it
   induces, illustrating the semantics of each row of the table. *)

module Utility = Nf_num.Utility
module Problem = Nf_num.Problem
module Oracle = Nf_num.Oracle
module Bf = Nf_num.Bandwidth_function

let gbps = Nf_util.Units.gbps

type row = { objective : string; flows : string list; rates : float array }

type t = row list

(* Parking lot: flow 0 crosses both links; flows 1 and 2 one link each. *)
let parking_groups u =
  [
    Problem.single_path (u 0) [| 0; 1 |];
    Problem.single_path (u 1) [| 0 |];
    Problem.single_path (u 2) [| 1 |];
  ]

let parking_caps = [| gbps 10.; gbps 10. |]

let solve caps groups =
  (Oracle.solve ~tol:1e-4 (Problem.create ~caps ~groups)).Oracle.group_rates

let run () =
  let alpha_row alpha =
    let u _ = Utility.alpha_fair ~alpha () in
    {
      objective = Printf.sprintf "alpha-fairness, alpha = %g" alpha;
      flows = [ "2-hop flow"; "1-hop flow"; "1-hop flow" ];
      rates = solve parking_caps (parking_groups u);
    }
  in
  let weighted_row =
    let weights = [| 1.; 2.; 4. |] in
    let u i = Utility.alpha_fair ~weight:weights.(i) ~alpha:1. () in
    {
      objective = "weighted alpha-fairness (w = 1, 2, 4; alpha = 1, one link)";
      flows = [ "w=1"; "w=2"; "w=4" ];
      rates =
        solve [| gbps 10. |]
          (List.init 3 (fun i -> Problem.single_path (u i) [| 0 |]));
    }
  in
  let fct_row =
    let sizes = [| 10e3; 100e3; 1e6 |] in
    let u i = Utility.fct ~size:sizes.(i) ~eps:0.125 in
    {
      objective = "FCT minimization (sizes 10 KB, 100 KB, 1 MB, one link)";
      flows = [ "10 KB"; "100 KB"; "1 MB" ];
      rates =
        solve [| gbps 10. |]
          (List.init 3 (fun i -> Problem.single_path (u i) [| 0 |]));
    }
  in
  let deadline_row =
    let deadlines = [| 1e-3; 5e-3; 50e-3 |] in
    let u i = Utility.deadline ~deadline:deadlines.(i) ~eps:0.125 in
    {
      objective = "deadline (EDF) weights (1 ms, 5 ms, 50 ms, one link)";
      flows = [ "1 ms"; "5 ms"; "50 ms" ];
      rates =
        solve [| gbps 10. |]
          (List.init 3 (fun i -> Problem.single_path (u i) [| 0 |]));
    }
  in
  let pooling_row =
    (* Parallel 10 and 6 Gbps links; the pooled flow uses both, the solo
       flow only the fast one. Proportional fairness over aggregates gives
       8 Gbps each (the pooled flow tops up its 6 Gbps private path with
       2 Gbps of the shared link). *)
    let pool =
      {
        Problem.utility = Utility.proportional_fair ();
        paths = [ [| 0 |]; [| 1 |] ];
      }
    in
    let solo = Problem.single_path (Utility.proportional_fair ()) [| 0 |] in
    {
      objective = "resource pooling (alpha = 1; 2 sub-flows over 10+6 Gbps vs 1 solo)";
      flows = [ "pooled (2 paths)"; "solo" ];
      rates = solve [| gbps 10.; gbps 6. |] [ pool; solo ];
    }
  in
  let bf_row =
    let bfs = [| Bf.fig2_flow1 (); Bf.fig2_flow2 () |] in
    let u i = Bf.utility bfs.(i) ~alpha:5. in
    {
      objective = "bandwidth functions (Fig. 2 curves, 25 Gbps link)";
      flows = [ "flow 1"; "flow 2" ];
      rates =
        solve [| gbps 25. |]
          (List.init 2 (fun i -> Problem.single_path (u i) [| 0 |]));
    }
  in
  [
    alpha_row 0.5;
    alpha_row 1.;
    alpha_row 2.;
    weighted_row;
    fct_row;
    deadline_row;
    pooling_row;
    bf_row;
  ]

let report t =
  Report.make
    ~title:
      "Table 1: allocation objectives as utility functions (Oracle allocations)"
    ~columns:[ "objective"; "flow"; "rate_gbps" ]
    (List.concat_map
       (fun r ->
         List.mapi
           (fun i name ->
             [
               Report.text r.objective;
               Report.text name;
               Report.float (r.rates.(i) /. 1e9);
             ])
           r.flows)
       t)
