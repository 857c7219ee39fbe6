(* Figure 7: FCT minimization. NUMFabric with the FCT utility
   (eps = 0.125, control loop slowed 2x per §6.3) vs pFabric (fluid SRPT)
   on the websearch workload, across loads. FCTs are normalized to the
   lowest possible FCT for each flow (line-rate transmission through an
   empty fabric). *)

module Dynamic = Nf_fluid.Dynamic
module Topology = Nf_topo.Topology

type point = {
  load : float;
  numfabric_mean : float;  (* mean normalized FCT, all flows *)
  pfabric_mean : float;
  numfabric_large : float;  (* mean normalized FCT, flows >= 5 BDP *)
  pfabric_large : float;
  srpt_weights_large : float;
    (* NUMFabric with remaining-size (SRPT) weights, flows >= 5 BDP *)
}

type t = point list

let bdp_bytes = 20_000.

(* The fluid model has no propagation or serialization delay, so the lowest
   possible FCT is simply line-rate transmission. *)
let ideal_fct topology path size =
  let line_rate = Topology.path_min_capacity topology (Array.to_list path) in
  size *. 8. /. line_rate

let normalized_fcts topology flows result =
  let by_key = Hashtbl.create 1024 in
  List.iter (fun f -> Hashtbl.replace by_key f.Dynamic.key f) flows;
  List.filter_map
    (fun c ->
      match Hashtbl.find_opt by_key c.Dynamic.c_key with
      | None -> None
      | Some f ->
        let ideal = ideal_fct topology f.Dynamic.path c.Dynamic.c_size in
        Some (c.Dynamic.c_size, Dynamic.fct c /. ideal))
    result.Dynamic.completions

let mean_of sel fcts =
  let xs = Array.of_list (List.filter_map sel fcts) in
  if Array.length xs = 0 then Float.nan else Nf_util.Stats.mean xs

let run ?(seed = 5) ?(n_flows = 800)
    ?(loads = [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ])
    ?(n_leaves = 4) ?(servers_per_leaf = 8) () =
  let ls = Nf_topo.Builders.leaf_spine ~n_leaves ~n_spines:2 ~servers_per_leaf () in
  let topology = ls.Nf_topo.Builders.topo in
  let hosts = ls.Nf_topo.Builders.servers in
  List.map
    (fun load ->
      let flows, caps =
        Support.dynamic_flows ~seed ~topology ~hosts
          ~size_dist:Nf_workload.Size_dist.websearch ~load ~n_flows
          ~utility_of:(fun ~size -> Nf_num.Utility.fct ~size ~eps:0.125)
      in
      (* NUMFabric, slowed 2x for numerical stability at small alpha
         (§6.2/6.3): 60 us price rounds. *)
      let nf =
        Dynamic.run ~caps
          ~make_scheme:(fun p -> Nf_fluid.Fluid_xwi.make ~interval:60e-6 p)
          ~flows ()
      in
      let pf =
        Dynamic.run ~caps ~make_scheme:(fun p -> Nf_fluid.Srpt.make p) ~flows ()
      in
      (* The SRPT-approximating variant: weights from remaining size (§2). *)
      let nf_srpt =
        Dynamic.run ~caps
          ~make_scheme:(fun p -> Nf_fluid.Fluid_xwi.make ~interval:60e-6 p)
          ~flows
          ~reutility:(fun _ ~remaining -> Nf_num.Utility.fct_remaining ~remaining ~eps:0.125)
          ()
      in
      let nf_fcts = normalized_fcts topology flows nf in
      let pf_fcts = normalized_fcts topology flows pf in
      let srpt_fcts = normalized_fcts topology flows nf_srpt in
      let all (_, v) = Some v in
      let large (size, v) = if size >= 5. *. bdp_bytes then Some v else None in
      {
        load;
        numfabric_mean = mean_of all nf_fcts;
        pfabric_mean = mean_of all pf_fcts;
        numfabric_large = mean_of large nf_fcts;
        pfabric_large = mean_of large pf_fcts;
        srpt_weights_large = mean_of large srpt_fcts;
      })
    loads

let report t =
  Report.make
    ~title:
      "Figure 7: normalized FCT vs load, websearch workload (FCT / \
       lowest-possible FCT)"
    ~columns:
      [
        "load";
        "numfabric_all";
        "pfabric_all";
        "ratio_all";
        "numfabric_large";
        "pfabric_large";
        "ratio_large";
        "srpt_weights_large";
      ]
    ~notes:
      [
        "paper: NUMFabric within 4-20% of pFabric across loads; in this fluid \
         reproduction sub-BDP flows are quantized by the 60 us xWI round, \
         which inflates the all-flows mean — see EXPERIMENTS.md";
      ]
    (List.map
       (fun p ->
         [
           Report.float p.load;
           Report.float p.numfabric_mean;
           Report.float p.pfabric_mean;
           Report.float (p.numfabric_mean /. p.pfabric_mean);
           Report.float p.numfabric_large;
           Report.float p.pfabric_large;
           Report.float (p.numfabric_large /. p.pfabric_large);
           Report.float p.srpt_weights_large;
         ])
       t)
