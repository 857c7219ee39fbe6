type entry = {
  name : string;
  description : string;
  run : Ctx.t -> Report.t;
}

(* Each experiment owns its sizes and seeds (derived from the context);
   an entry only names it and renders its result. *)
let all =
  [
    { name = "table1";
      description = "utility-function menu (Table 1)";
      run = (fun _ -> Exp_table1.(report (run ()))) };
    { name = "table2";
      description = "default parameters (Table 2)";
      run = (fun _ -> Exp_table2.(report (run ()))) };
    { name = "fig2";
      description = "bandwidth-function water-filling example (Figure 2)";
      run = (fun _ -> Exp_fig2.(report (run ()))) };
    { name = "fig4a";
      description = "convergence-time CDF, NUMFabric vs DGD vs RCP* (Figure 4a)";
      run = (fun ctx -> Exp_fig4a.(report (run ctx))) };
    { name = "fig4a-packet";
      description = "Figure 4a's comparison at packet level (reduced scale)";
      run = (fun ctx -> Exp_fig4a.(report_packet (run_packet ctx))) };
    { name = "fig4bc";
      description = "packet-level rate stability, DCTCP vs NUMFabric (Figures 4b/4c)";
      run = (fun _ -> Exp_fig4bc.(report (run ()))) };
    { name = "fig5";
      description = "deviation from ideal rates, dynamic workloads (Figure 5)";
      run = (fun ctx -> Exp_fig5.(report (run ctx))) };
    { name = "fig6a";
      description = "sensitivity to Swift's dt, packet level (Figure 6a)";
      run = (fun ctx -> Exp_fig6.(report_dt (run_dt ctx))) };
    { name = "fig6b";
      description = "sensitivity to the price-update interval (Figure 6b)";
      run = (fun ctx -> Exp_fig6.(report_interval (run_interval ctx))) };
    { name = "fig6c";
      description = "sensitivity to alpha, 1x and 2x-slowed loops (Figure 6c)";
      run = (fun ctx -> Exp_fig6.(report_alpha (run_alpha ctx))) };
    { name = "fig7";
      description = "FCT vs load, NUMFabric vs pFabric (Figure 7)";
      run = (fun ctx -> Exp_fig7.(report (run ctx))) };
    { name = "fig8";
      description = "multipath resource pooling (Figure 8)";
      run = (fun ctx -> Exp_fig8.(report (run ctx))) };
    { name = "fig9";
      description = "bandwidth functions vs link capacity (Figure 9)";
      run = (fun _ -> Exp_fig9.(report (run ()))) };
    { name = "fig10";
      description = "bandwidth functions + pooling, capacity change (Figure 10)";
      run = (fun _ -> Exp_fig10.(report (run ()))) };
    { name = "swift";
      description = "packet-level Swift vs weighted max-min oracle";
      run = (fun ctx -> Exp_swift.(report (run ctx))) };
    { name = "queues";
      description = "equilibrium queue occupancy vs dt (packet level)";
      run = (fun _ -> Exp_queues.(report (run ()))) };
    { name = "random";
      description = "randomized xWI validation (tech-report style)";
      run = (fun ctx -> Exp_random.(report (run ctx))) };
    { name = "ablation";
      description = "design-choice ablations (beta, eta, residual aggregation, burst)";
      run = (fun ctx -> Exp_ablation.(report (run ctx))) };
    { name = "churn";
      description = "warm-started re-solves under flow churn (serve path)";
      run = (fun ctx -> Exp_churn.(report (run ctx))) };
    { name = "scale";
      description = "large-fabric convergence: k=16 fat tree, 100k+ ECMP flows";
      run = (fun ctx -> Exp_scale.(report (run ctx))) };
  ]

let find name = List.find_opt (fun e -> e.name = name) all
