(* Figure 6: parameter sensitivity of NUMFabric (§6.2).

   (a) Swift's window slack dt — packet-level, since dt only exists where
       there are real windows and queues;
   (b) the xWI price-update interval — fluid semi-dynamic;
   (c) the alpha of the fairness objective, with and without the 2x
       slowdown of §6.2 — fluid semi-dynamic. *)

type point = { x : float; median : float; unconverged : int }

let point x r =
  { x; median = Support.median_time r.Support.times; unconverged = r.Support.unconverged }

(* ------------------------------------------------------------------ *)
(* (a) dt sensitivity, packet level *)

type fig6a = point list

let run_dt ctx =
  let ls = Psupport.leaf_spine () in
  let scenario =
    Support.semidyn_prepare
      ~setup:
        (Psupport.default_setup
           ~seed:(Ctx.rng_seed ctx ~default:11)
           ~n_events:(Ctx.scaled ctx ~floor:3 6))
      ~topology:ls.Nf_topo.Builders.topo ~hosts:ls.Nf_topo.Builders.servers ()
  in
  List.map
    (fun dt ->
      let config =
        {
          Nf_sim.Config.default with
          Nf_sim.Config.swift =
            { Nf_sim.Config.default_swift with Nf_sim.Config.dt_slack = dt };
        }
      in
      point dt (Psupport.semidyn ~config scenario))
    [ 3e-6; 6e-6; 12e-6; 18e-6; 24e-6 ]

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

(* Figures 6b and 6c share the seed and the event count. *)
let sweep_setup ctx =
  Support.sweep_semidyn
    ~seed:(Ctx.rng_seed ctx ~default:2)
    ~n_events:(Ctx.scaled ctx ~floor:6 30)

let run_interval ctx =
  let ls = Support.sweep_leaf_spine () in
  let setup = sweep_setup ctx in
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
      point interval (Support.semidyn_run ~scenario ~scheme))
    [ 30e-6; 48e-6; 64e-6; 96e-6; 128e-6 ]

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

let run_alpha ctx =
  let ls = Support.sweep_leaf_spine () in
  List.map
    (fun alpha ->
      let base = sweep_setup ctx in
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
      let point scheme = point alpha (Support.semidyn_run ~scenario ~scheme) in
      let fast =
        point
          (Support.Scheme_numfabric
             {
               params = Nf_num.Xwi_core.default_params;
               interval = Nf_num.Price_law.xwi_interval;
             })
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
    [ 0.25; 0.5; 1.; 2.; 4. ]

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
