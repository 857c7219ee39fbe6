(* Ablations of NUMFabric's design choices (DESIGN.md):
   - price averaging beta (Eq. 11): none vs paper's 0.5 vs heavy;
   - utilization gain eta (Eq. 10): the paper claims insensitivity;
   - Eq. 9's min-residual aggregation vs a mean-residual variant;
   - Swift's initial burst size (packet level): the 3-packet burst seeds
     the packet-pair estimator. *)

module Xwi = Nf_num.Xwi_core

type variant = { label : string; median : float; unconverged : int }

type t = {
  beta_sweep : variant list;
  eta_sweep : variant list;
  residual_agg : variant list;
  burst_sweep : variant list;
  weight_quant : variant list;
    (* §8: WFQ with a small set of discrete weight classes *)
}

let fluid_variant scenario criteria label params =
  let scheme = Support.Scheme_numfabric { params; interval = 30e-6 } in
  let r = Support.semidyn_run ~scenario ~criteria ~scheme in
  {
    label;
    median =
      (if Array.length r.Support.times > 0 then Nf_util.Stats.median r.Support.times
       else Float.nan);
    unconverged = r.Support.unconverged;
  }

let run ?(seed = 4) ?(n_events = 25) () =
  let ls = Nf_topo.Builders.leaf_spine ~n_leaves:4 ~n_spines:2 ~servers_per_leaf:8 () in
  let base = Support.default_semidyn ~seed ~n_events () in
  let setup =
    { base with Support.n_paths = 250; flows_per_event = 25; active_min = 75; active_max = 125 }
  in
  let scenario =
    Support.semidyn_prepare ~setup ~topology:ls.Nf_topo.Builders.topo
      ~hosts:ls.Nf_topo.Builders.servers ()
  in
  let criteria = setup.Support.criteria in
  let v = fluid_variant scenario criteria in
  let beta_sweep =
    List.map
      (fun beta ->
        v (Printf.sprintf "beta = %g" beta) { Xwi.default_params with Xwi.beta })
      [ 0.01; 0.25; 0.5; 0.75; 0.9 ]
  in
  let eta_sweep =
    List.map
      (fun eta -> v (Printf.sprintf "eta = %g" eta) { Xwi.default_params with Xwi.eta })
      [ 1.; 5.; 20. ]
  in
  let residual_agg =
    [
      v "min residual (Eq. 9)" Xwi.default_params;
      v "mean residual" { Xwi.default_params with Xwi.residual_agg = Xwi.Agg_mean };
    ]
  in
  (* Packet-level burst-size sweep. *)
  let pls = Nf_topo.Builders.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:4 () in
  let psetup = Psupport.default_setup ~seed ~n_events:4 () in
  let packet_variant label config =
    let r =
      Psupport.semidyn ~config ~setup:psetup ~topology:pls.Nf_topo.Builders.topo
        ~hosts:pls.Nf_topo.Builders.servers
        ~utility_of:(fun _ -> Nf_num.Utility.proportional_fair ())
        ()
    in
    {
      label;
      median =
        (if Array.length r.Psupport.times > 0 then
           Nf_util.Stats.median r.Psupport.times
         else Float.nan);
      unconverged = r.Psupport.unconverged;
    }
  in
  let weight_quant =
    List.map
      (fun base ->
        let label, config =
          match base with
          | None -> ("exact weights (STFQ)", Nf_sim.Config.default)
          | Some b ->
            ( Printf.sprintf "weights quantized to powers of %g" b,
              {
                Nf_sim.Config.default with
                Nf_sim.Config.swift =
                  {
                    Nf_sim.Config.default_swift with
                    Nf_sim.Config.weight_quant_base = Some b;
                  };
              } )
        in
        packet_variant label config)
      [ None; Some 1.3; Some 2.; Some 4. ]
  in
  let burst_sweep =
    List.map
      (fun burst ->
        packet_variant
          (Printf.sprintf "init burst = %d pkts" burst)
          {
            Nf_sim.Config.default with
            Nf_sim.Config.swift =
              { Nf_sim.Config.default_swift with Nf_sim.Config.init_burst = burst };
          })
      [ 1; 3; 6 ]
  in
  { beta_sweep; eta_sweep; residual_agg; burst_sweep; weight_quant }

let report t =
  let rows sweep variants =
    List.map
      (fun v ->
        [
          Report.text sweep;
          Report.text v.label;
          Report.float (v.median *. 1e6);
          Report.int v.unconverged;
        ])
      variants
  in
  Report.make ~title:"Ablations (semi-dynamic convergence)"
    ~columns:[ "sweep"; "variant"; "median_us"; "unconverged" ]
    (rows "price averaging beta (Eq. 11)" t.beta_sweep
    @ rows "utilization gain eta (Eq. 10)" t.eta_sweep
    @ rows "Eq. 9 residual aggregation" t.residual_agg
    @ rows "Swift initial burst (packet level)" t.burst_sweep
    @ rows "discrete weight classes (packet level, §8 WFQ approximation)"
        t.weight_quant)
