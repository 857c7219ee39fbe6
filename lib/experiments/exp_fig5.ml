(* Figure 5: deviation of per-flow achieved rates from the instantaneous
   Oracle's rates, binned by flow size in BDPs, for the websearch and
   enterprise dynamic workloads.

   Per §6.1: rate of a flow = size / FCT; normalized deviation =
   (rate_scheme - rate_oracle) / rate_oracle; bins are log-scale in the
   BDP (Support.bdp_bytes, 20 KB). *)

module Dynamic = Nf_fluid.Dynamic
module Stats = Nf_util.Stats

let bins = [ (0., 5.); (5., 10.); (10., 100.); (100., 1_000.); (1_000., 10_000.) ]

type bin_stats = {
  bin : float * float;  (* in BDPs *)
  count : int;
  box : Stats.boxplot option;
}

type scheme_result = { scheme : string; per_bin : bin_stats list }

type workload_result = { workload : string; schemes : scheme_result list }

type t = workload_result list

let deviations result ideal_rates =
  (* ideal_rates: key -> oracle achieved rate *)
  List.filter_map
    (fun c ->
      match Hashtbl.find_opt ideal_rates c.Dynamic.c_key with
      | Some ideal when ideal > 0. ->
        Some
          ( c.Dynamic.c_size,
            (Dynamic.achieved_rate c -. ideal) /. ideal )
      | Some _ | None -> None)
    result.Dynamic.completions

let bin_up devs =
  List.map
    (fun (lo, hi) ->
      let inside =
        List.filter_map
          (fun (size, d) ->
            let b = size /. Support.bdp_bytes in
            if b >= lo && b < hi then Some d else None)
          devs
      in
      let arr = Array.of_list inside in
      {
        bin = (lo, hi);
        count = Array.length arr;
        box = (if Array.length arr >= 4 then Some (Stats.boxplot arr) else None);
      })
    bins

let run_workload ~seed ~topology ~hosts ~n_flows ~load dist =
  let utility_of ~size:_ = Nf_num.Utility.proportional_fair () in
  let flows, caps =
    Support.dynamic_flows ~seed ~topology ~hosts ~size_dist:dist ~load ~n_flows
      ~utility_of
  in
  let ideal = Dynamic.run_ideal ~caps ~flows () in
  let ideal_rates = Hashtbl.create n_flows in
  List.iter
    (fun c -> Hashtbl.replace ideal_rates c.Dynamic.c_key (Dynamic.achieved_rate c))
    ideal.Dynamic.completions;
  let schemes =
    [
      ("NUMFabric", fun p -> Nf_fluid.Fluid_xwi.make p);
      ("DGD", fun p -> Nf_fluid.Fluid_dgd.make p);
      ("RCP*", fun p -> Nf_fluid.Fluid_rcp.make ~alpha:1. p);
    ]
  in
  {
    workload = Nf_workload.Size_dist.name dist;
    schemes =
      List.map
        (fun (name, make_scheme) ->
          let result = Dynamic.run ~caps ~make_scheme ~flows () in
          { scheme = name; per_bin = bin_up (deviations result ideal_rates) })
        schemes;
  }

let run ctx =
  let seed = Ctx.rng_seed ctx ~default:3 in
  let n_flows = Ctx.scaled ctx ~floor:250 1500 in
  let ls =
    Nf_topo.Builders.leaf_spine ~n_leaves:4 ~n_spines:2 ~servers_per_leaf:8 ()
  in
  List.map
    (fun dist ->
      run_workload ~seed ~topology:ls.Nf_topo.Builders.topo
        ~hosts:ls.Nf_topo.Builders.servers ~n_flows ~load:0.5 dist)
    [ Nf_workload.Size_dist.websearch; Nf_workload.Size_dist.enterprise ]

let report t =
  Report.make
    ~title:
      "Figure 5: normalized deviation from ideal (Oracle) rates by flow size \
       (in BDP = 20 KB)"
    ~columns:
      [ "workload"; "scheme"; "bin_lo_bdp"; "bin_hi_bdp"; "n"; "p25"; "p50"; "p75" ]
    ~notes:
      [
        "paper: NUMFabric's median deviation ~0 beyond ~5 BDP; DGD/RCP* \
         negatively biased, worst for small flows";
      ]
    (List.concat_map
       (fun w ->
         List.concat_map
           (fun s ->
             List.map
               (fun b ->
                 let lo, hi = b.bin in
                 let p sel =
                   match b.box with
                   | Some box -> Report.float (sel box)
                   | None -> Report.float Float.nan
                 in
                 [
                   Report.text w.workload;
                   Report.text s.scheme;
                   Report.float lo;
                   Report.float hi;
                   Report.int b.count;
                   p (fun box -> box.Stats.p25);
                   p (fun box -> box.Stats.p50);
                   p (fun box -> box.Stats.p75);
                 ])
               s.per_bin)
           w.schemes)
       t)
