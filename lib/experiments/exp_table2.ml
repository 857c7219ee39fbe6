(* Table 2: default parameter settings of all schemes, as configured in
   this implementation. *)

type row = { scheme : string; parameters : string }

type t = row list

let run () =
  let c = Nf_sim.Config.default in
  let us x = x *. 1e6 in
  [
    {
      scheme = "NUMFabric";
      parameters =
        Printf.sprintf
          "ewmaTime = %g us, dt = %g us, priceUpdateInterval = %g us, eta = \
           %g, beta = %g, initial burst = %d packets"
          (us c.Nf_sim.Config.swift.Nf_sim.Config.ewma_time)
          (us c.Nf_sim.Config.swift.Nf_sim.Config.dt_slack)
          (us Nf_num.Price_law.xwi_interval)
          Nf_num.Price_law.eta Nf_num.Price_law.beta
          c.Nf_sim.Config.swift.Nf_sim.Config.init_burst;
    };
    {
      scheme = "DGD";
      parameters =
        Printf.sprintf
          "priceUpdateInterval = %g us, relative gains a = %g, b = %g (scaled \
           by price magnitude %g)"
          (us c.Nf_sim.Config.dgd.Nf_num.Price_law.dgd_update_interval)
          c.Nf_sim.Config.dgd.Nf_num.Price_law.dgd_gain_util
          c.Nf_sim.Config.dgd.Nf_num.Price_law.dgd_gain_queue
          c.Nf_sim.Config.dgd.Nf_num.Price_law.dgd_price_scale;
    };
    {
      scheme = "RCP*";
      parameters =
        Printf.sprintf "rateUpdateInterval = %g us, a = %g, b = %g, d = %g us"
          (us c.Nf_sim.Config.rcp.Nf_num.Price_law.rcp_update_interval)
          c.Nf_sim.Config.rcp.Nf_num.Price_law.rcp_gain_spare
          c.Nf_sim.Config.rcp.Nf_num.Price_law.rcp_gain_queue
          (us c.Nf_sim.Config.rcp.Nf_num.Price_law.rcp_mean_rtt);
    };
    {
      scheme = "DCTCP";
      parameters =
        Printf.sprintf "marking threshold = %d B, g = %g"
          c.Nf_sim.Config.dctcp.Nf_sim.Config.dctcp_mark_threshold
          c.Nf_sim.Config.dctcp.Nf_sim.Config.dctcp_gain;
    };
    {
      scheme = "pFabric";
      parameters =
        Printf.sprintf "buffer = %d B, RTO = %g us"
          c.Nf_sim.Config.pfabric.Nf_sim.Config.pfabric_buffer_bytes
          (us c.Nf_sim.Config.pfabric.Nf_sim.Config.pfabric_rto);
    };
    {
      scheme = "switches";
      parameters =
        Printf.sprintf
          "%d B buffering per port; rate measurement EWMA tau = %g us"
          c.Nf_sim.Config.buffer_bytes
          (us c.Nf_sim.Config.rate_measure_tau);
    };
  ]

let report t =
  Report.make ~title:"Table 2: default parameter settings"
    ~columns:[ "scheme"; "parameters" ]
    (List.map (fun r -> [ Report.text r.scheme; Report.text r.parameters ]) t)
