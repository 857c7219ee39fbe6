(* Figure 10: bandwidth functions combined with resource pooling. Two
   multipath flows (each with a private path and a shared middle link) use
   the Fig. 2 bandwidth functions over their aggregate rates; the middle
   link's capacity changes from 5 to 17 Gbps mid-run and the allocation
   must re-converge to the BwE-expected split. *)

module Bf = Nf_num.Bandwidth_function
module Problem = Nf_num.Problem
module Topology = Nf_topo.Topology
module Builders = Nf_topo.Builders

let gbps = Nf_util.Units.gbps

type t = {
  series1 : Nf_util.Timeseries.t;  (* aggregate rate of flow 1 *)
  series2 : Nf_util.Timeseries.t;
  expected_before : float * float;
  expected_after : float * float;
  achieved_before : float * float;  (* just before the capacity change *)
  achieved_after : float * float;  (* at the end of the run *)
}

(* The capacity changes at [switch_at] seconds; the run ends at [duration]. *)
let switch_at = 5e-3

let duration = 10e-3

let run () =
  let alpha = 5. in
  let tl = Builders.three_link_pooling ~middle_capacity:(gbps 5.) () in
  let topo = tl.Builders.tl_topo in
  let caps = Array.map (fun l -> l.Topology.capacity) (Topology.links topo) in
  let group bf paths =
    { Problem.utility = Bf.utility bf ~alpha; paths = List.map Array.of_list paths }
  in
  let problem =
    Problem.create ~caps
      ~groups:
        [
          group (Bf.fig2_flow1 ()) tl.Builders.tl_paths1;
          group (Bf.fig2_flow2 ()) tl.Builders.tl_paths2;
        ]
  in
  let scheme = Nf_fluid.Fluid_xwi.make problem in
  let series1 = Nf_util.Timeseries.create () in
  let series2 = Nf_util.Timeseries.create () in
  let interval = scheme.Nf_fluid.Scheme.interval in
  let n_iters = int_of_float (ceil (duration /. interval)) in
  let switch_iter = int_of_float (ceil (switch_at /. interval)) in
  let before = ref (0., 0.) in
  let r = Array.make (Problem.n_groups problem) 0. in
  let sample () =
    Problem.group_rates_into problem ~rates:(scheme.Nf_fluid.Scheme.rates ()) r
  in
  for k = 0 to n_iters - 1 do
    if k = switch_iter then begin
      sample ();
      before := (r.(0), r.(1));
      Problem.set_cap problem tl.Builders.middle (gbps 17.)
    end;
    scheme.Nf_fluid.Scheme.step ();
    sample ();
    let time = float_of_int (k + 1) *. interval in
    Nf_util.Timeseries.add series1 ~time r.(0);
    Nf_util.Timeseries.add series2 ~time r.(1)
  done;
  sample ();
  let final = (r.(0), r.(1)) in
  {
    series1;
    series2;
    expected_before = (gbps 10., gbps 3.);
    expected_after = (gbps 15., gbps 10.);
    achieved_before = !before;
    achieved_after = final;
  }

let report t =
  let g x = x /. 1e9 in
  let grid =
    Nf_util.Timeseries.resample t.series1 ~t0:0.5e-3 ~t1:duration ~dt:0.5e-3
  in
  Report.make
    ~title:
      "Figure 10: bandwidth functions + resource pooling, middle link 5 -> 17 \
       Gbps"
    ~columns:[ "t_ms"; "flow1_gbps"; "flow2_gbps" ]
    ~notes:
      [
        Printf.sprintf
          "before switch: flow1 %.2f Gbps (expected %.2f), flow2 %.2f \
           (expected %.2f)"
          (g (fst t.achieved_before))
          (g (fst t.expected_before))
          (g (snd t.achieved_before))
          (g (snd t.expected_before));
        Printf.sprintf
          "after switch: flow1 %.2f Gbps (expected %.2f), flow2 %.2f \
           (expected %.2f)"
          (g (fst t.achieved_after))
          (g (fst t.expected_after))
          (g (snd t.achieved_after))
          (g (snd t.expected_after));
      ]
    (List.map
       (fun (time, v1) ->
         let v2 =
           match Nf_util.Timeseries.value_at t.series2 time with
           | Some v -> v
           | None -> Float.nan
         in
         [
           Report.float (time *. 1e3); Report.float (g v1); Report.float (g v2);
         ])
       grid)
