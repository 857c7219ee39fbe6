(* Queue-occupancy validation (§6: "the queue occupancies are typically
   only a few packets at equilibrium"; §6.2: dt = 6 us "targets a buffer
   occupancy of 5 packets (1500 bytes each) at every bottleneck link").

   Four NUMFabric flows share a 10 Gbps bottleneck; after convergence the
   standing queue should track dt * C / 8 bytes. DCTCP on the same setup
   should instead hover around its marking threshold. *)

module Network = Nf_sim.Network
module Builders = Nf_topo.Builders

type point = {
  label : string;
  expected_pkts : float;  (* nan when no sharp prediction exists *)
  mean_pkts : float;
  p95_pkts : float;
}

type t = point list

let run_case ~label ~expected_pkts ~protocol ~config =
  let sb = Builders.single_bottleneck ~n_senders:4 () in
  let net = Network.create ~config ~topology:sb.Builders.sb_topo ~protocol () in
  let utility =
    if Nf_sim.Protocol.needs_utility protocol then
      Some (Nf_num.Utility.proportional_fair ())
    else None
  in
  Array.iteri
    (fun i s ->
      Network.add_flow net
        (Network.flow ?utility ~id:i ~src:s ~dst:sb.Builders.receiver ()))
    sb.Builders.senders;
  Network.monitor_links net ~links:[ sb.Builders.bottleneck ] ~every:10e-6;
  Network.run net ~until:6e-3;
  let series =
    match Network.queue_series net ~link:sb.Builders.bottleneck with
    | Some ts -> ts
    | None -> invalid_arg "Exp_queues: monitoring failed"
  in
  (* Discard the first 2 ms (convergence transient). *)
  let samples =
    Nf_util.Timeseries.resample series ~t0:2e-3 ~t1:6e-3 ~dt:10e-6
    |> List.map (fun (_, bytes) -> bytes /. 1500.)
    |> Array.of_list
  in
  {
    label;
    expected_pkts;
    mean_pkts = Nf_util.Stats.mean samples;
    p95_pkts = Nf_util.Stats.percentile samples 95.;
  }

let run () =
  let dt_case dt =
    run_case
      ~label:(Printf.sprintf "NUMFabric, dt = %g us" (dt *. 1e6))
      ~expected_pkts:(dt *. 1e10 /. 8. /. 1500.)
      ~protocol:(Nf_sim.Protocols.get "numfabric")
      ~config:
        {
          Nf_sim.Config.default with
          Nf_sim.Config.swift =
            { Nf_sim.Config.default_swift with Nf_sim.Config.dt_slack = dt };
        }
  in
  [
    dt_case 3e-6;
    dt_case 6e-6;
    dt_case 12e-6;
    dt_case 24e-6;
    run_case ~label:"DCTCP (threshold 30 KB = 20 pkts)" ~expected_pkts:20.
      ~protocol:(Nf_sim.Protocols.get "dctcp") ~config:Nf_sim.Config.default;
  ]

let report t =
  Report.make
    ~title:
      "Queue occupancy at the bottleneck after convergence (packets of 1500 B)"
    ~columns:[ "case"; "expected_pkts"; "mean_pkts"; "p95_pkts" ]
    ~notes:
      [
        "paper: NUMFabric equilibrium queues are a few packets, set by dt; dt \
         = 6 us targets ~5 packets";
      ]
    (List.map
       (fun p ->
         [
           Report.text p.label;
           Report.float p.expected_pkts;
           Report.float p.mean_pkts;
           Report.float p.p95_pkts;
         ])
       t)
