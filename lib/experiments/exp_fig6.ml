(* Figure 6: parameter sensitivity of NUMFabric (§6.2).

   (a) Swift's window slack dt — packet-level, since dt only exists where
       there are real windows and queues;
   (b) the xWI price-update interval — fluid semi-dynamic;
   (c) the alpha of the fairness objective, with and without the 2x
       slowdown of §6.2 — fluid semi-dynamic. *)

type point = { x : float; median : float; unconverged : int }

(* ------------------------------------------------------------------ *)
(* (a) dt sensitivity, packet level *)

type fig6a = point list

let run_dt ?(seed = 11) ?(n_events = 5)
    ?(dts = [ 3e-6; 6e-6; 12e-6; 18e-6; 24e-6 ]) () =
  let ls = Nf_topo.Builders.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:4 () in
  let setup = Psupport.default_setup ~seed ~n_events () in
  List.map
    (fun dt ->
      let config =
        {
          Nf_sim.Config.default with
          Nf_sim.Config.swift =
            { Nf_sim.Config.default_swift with Nf_sim.Config.dt_slack = dt };
        }
      in
      let r =
        Psupport.semidyn ~config ~setup ~topology:ls.Nf_topo.Builders.topo
          ~hosts:ls.Nf_topo.Builders.servers
          ~utility_of:(fun _ -> Nf_num.Utility.proportional_fair ())
          ()
      in
      {
        x = dt;
        median =
          (if Array.length r.Psupport.times > 0 then
             Nf_util.Stats.median r.Psupport.times
           else Float.nan);
        unconverged = r.Psupport.unconverged;
      })
    dts

let point_rows ~x_scale t =
  List.map
    (fun p ->
      [
        Report.float (p.x *. x_scale);
        Report.float (p.median *. 1e6);
        Report.int p.unconverged;
      ])
    t

let report_dt t =
  Report.make ~title:"Figure 6a: sensitivity to Swift's dt (packet level)"
    ~columns:[ "dt_us"; "median_us"; "unconverged" ]
    ~notes:
      [
        "paper: very small dt fails to converge; large dt slows convergence; \
         sweet spot ~6 us";
      ]
    (point_rows ~x_scale:1e6 t)

(* ------------------------------------------------------------------ *)
(* (b) price-update interval, fluid *)

type fig6b = point list

let sweep_topology () =
  Nf_topo.Builders.leaf_spine ~n_leaves:4 ~n_spines:2 ~servers_per_leaf:8 ()

let sweep_setup ~seed ~n_events =
  let base = Support.default_semidyn ~seed ~n_events () in
  { base with Support.n_paths = 250; flows_per_event = 25; active_min = 75; active_max = 125 }

let run_interval ?(seed = 2) ?(n_events = 25)
    ?(intervals = [ 30e-6; 48e-6; 64e-6; 96e-6; 128e-6 ]) () =
  let ls = sweep_topology () in
  let setup = sweep_setup ~seed ~n_events in
  let scenario =
    Support.semidyn_prepare ~setup ~topology:ls.Nf_topo.Builders.topo
      ~hosts:ls.Nf_topo.Builders.servers ()
  in
  List.map
    (fun interval ->
      let scheme =
        Support.Scheme_numfabric
          { params = Nf_num.Xwi_core.default_params; interval }
      in
      let r = Support.semidyn_run ~scenario ~criteria:setup.Support.criteria ~scheme in
      {
        x = interval;
        median =
          (if Array.length r.Support.times > 0 then
             Nf_util.Stats.median r.Support.times
           else Float.nan);
        unconverged = r.Support.unconverged;
      })
    intervals

let report_interval t =
  Report.make
    ~title:"Figure 6b: sensitivity to the price update interval (fluid)"
    ~columns:[ "interval_us"; "median_us"; "unconverged" ]
    ~notes:
      [ "paper: median convergence time grows with the update interval" ]
    (point_rows ~x_scale:1e6 t)

(* ------------------------------------------------------------------ *)
(* (c) alpha sensitivity, fluid, 1x and 2x slowdown *)

type fig6c_point = { alpha : float; fast : point; slow : point }

type fig6c = fig6c_point list

let run_alpha ?(seed = 2) ?(n_events = 25)
    ?(alphas = [ 0.25; 0.5; 1.; 2.; 4. ]) () =
  let ls = sweep_topology () in
  List.map
    (fun alpha ->
      let base = sweep_setup ~seed ~n_events in
      let setup =
        {
          base with
          Support.utility_of = (fun _ -> Nf_num.Utility.alpha_fair ~alpha ());
        }
      in
      let scenario =
        Support.semidyn_prepare ~setup ~topology:ls.Nf_topo.Builders.topo
          ~hosts:ls.Nf_topo.Builders.servers ()
      in
      let point scheme =
        let r =
          Support.semidyn_run ~scenario ~criteria:setup.Support.criteria ~scheme
        in
        {
          x = alpha;
          median =
            (if Array.length r.Support.times > 0 then
               Nf_util.Stats.median r.Support.times
             else Float.nan);
          unconverged = r.Support.unconverged;
        }
      in
      let fast =
        point
          (Support.Scheme_numfabric
             { params = Nf_num.Xwi_core.default_params; interval = 30e-6 })
      in
      (* The paper's 2x slowdown doubles the price-update interval and the
         measurement smoothing; in the fluid model the analogue is the
         doubled interval plus heavier price averaging. *)
      let slow =
        point
          (Support.Scheme_numfabric
             {
               params =
                 { Nf_num.Xwi_core.default_params with Nf_num.Xwi_core.beta = 0.75 };
               interval = 60e-6;
             })
      in
      { alpha; fast; slow })
    alphas

let report_alpha t =
  Report.make
    ~title:
      "Figure 6c: sensitivity to alpha (fluid; 1x and 2x-slowed control loop)"
    ~columns:
      [
        "alpha";
        "fast_median_us";
        "fast_unconverged";
        "slow_median_us";
        "slow_unconverged";
      ]
    ~notes:
      [
        "paper: extreme alphas need the slowed loop; the slowdown costs a \
         modest increase in median time";
      ]
    (List.map
       (fun p ->
         [
           Report.float p.alpha;
           Report.float (p.fast.median *. 1e6);
           Report.int p.fast.unconverged;
           Report.float (p.slow.median *. 1e6);
           Report.int p.slow.unconverged;
         ])
       t)
