(* Figures 4b/4c: the rate of one tracked flow through a sequence of
   network events, packet level, DCTCP vs NUMFabric. The tracked flow
   shares a 10 Gbps bottleneck with a changing set of competitors; with
   proportional fairness (and equal RTTs) the expected rate is C / k.
   The paper's point: DCTCP's rate at 100 us timescales never settles
   within 10% of the expected value, while NUMFabric locks on. *)

module Network = Nf_sim.Network
module Builders = Nf_topo.Builders

type epoch = {
  from_t : float;
  until_t : float;
  expected : float;  (* bps *)
  within_fraction_dctcp : float;  (* fraction of samples within 10% *)
  within_fraction_numfabric : float;
}

type t = {
  epochs : epoch list;
  series_dctcp : (float * float) list;  (* (ms, Gbps), resampled *)
  series_numfabric : (float * float) list;
  records : (string * Nf_sim.Record.t) list;
}

(* Competitor count in each 5 ms epoch; the tracked flow is always on. *)
let competitors_per_epoch = [ 0; 1; 2; 3; 1; 4; 0; 2 ]

let epoch_len = 5e-3

let run_protocol proto =
  let sb = Builders.single_bottleneck ~n_senders:6 () in
  let config = { Nf_sim.Config.default with Nf_sim.Config.record_rates = true } in
  let net = Network.create ~config ~topology:sb.Builders.sb_topo ~protocol:proto () in
  let u () = Nf_num.Utility.proportional_fair () in
  let needs_u = Nf_sim.Protocol.needs_utility proto in
  let utility () = if needs_u then Some (u ()) else None in
  Network.add_flow net
    (Network.flow ?utility:(utility ()) ~id:0 ~src:sb.Builders.senders.(0)
       ~dst:sb.Builders.receiver ());
  (* Competitors: one per sender slot 1..5, started/stopped per epoch. *)
  let next_id = ref 1 in
  List.iteri
    (fun k n ->
      let start = float_of_int k *. epoch_len in
      let stop = start +. epoch_len in
      for j = 1 to n do
        let id = !next_id in
        incr next_id;
        Network.add_flow net
          (Network.flow ?utility:(utility ()) ~start ~id
             ~src:sb.Builders.senders.(1 + ((j - 1) mod 5))
             ~dst:sb.Builders.receiver ());
        Network.stop_flow_at net ~id stop
      done)
    competitors_per_epoch;
  (* Bottleneck queue + feedback samples land in the run record (visible
     via [nf_run exp fig4bc --record]); sampling is read-only. *)
  Network.monitor_links net ~links:[ sb.Builders.bottleneck ] ~every:50e-6;
  let total = float_of_int (List.length competitors_per_epoch) *. epoch_len in
  Network.run net ~until:total;
  net

let run () =
  let dctcp = run_protocol (Nf_sim.Protocols.get "dctcp") in
  let numfabric = run_protocol (Nf_sim.Protocols.get "numfabric") in
  let series net =
    match Network.rate_series net 0 with
    | Some ts -> ts
    | None -> invalid_arg "Exp_fig4bc: rate series missing"
  in
  let s_d = series dctcp and s_n = series numfabric in
  let cap = Nf_util.Units.gbps 10. in
  let epochs =
    List.mapi
      (fun k n ->
        let from_t = float_of_int k *. epoch_len in
        let until_t = from_t +. epoch_len in
        let expected = cap /. float_of_int (n + 1) in
        (* Skip the first 1 ms of each epoch (transition + filter rise). *)
        let frac ts =
          let samples =
            Nf_util.Timeseries.resample ts ~t0:(from_t +. 1e-3) ~t1:(until_t -. 1e-4)
              ~dt:50e-6
          in
          match samples with
          | [] -> 0.
          | _ ->
            let inside =
              List.length
                (List.filter
                   (fun (_, r) ->
                     Nf_util.Fcmp.within_fraction ~frac:0.1 ~actual:r
                       ~target:expected)
                   samples)
            in
            float_of_int inside /. float_of_int (List.length samples)
        in
        {
          from_t;
          until_t;
          expected;
          within_fraction_dctcp = frac s_d;
          within_fraction_numfabric = frac s_n;
        })
      competitors_per_epoch
  in
  let total = float_of_int (List.length competitors_per_epoch) *. epoch_len in
  let resample ts =
    List.map
      (fun (t, v) -> (t *. 1e3, v /. 1e9))
      (Nf_util.Timeseries.resample ts ~t0:0.5e-3 ~t1:total ~dt:1e-3)
  in
  {
    epochs;
    series_dctcp = resample s_d;
    series_numfabric = resample s_n;
    records =
      [
        ("fig4bc-dctcp", Network.record dctcp);
        ("fig4bc-numfabric", Network.record numfabric);
      ];
  }

let report t =
  let mean sel =
    let xs = List.map sel t.epochs in
    List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let report =
    Report.make
      ~title:
        "Figures 4b/4c: rate of a tracked flow through network events (packet \
         level)"
      ~columns:
        [
          "from_ms";
          "until_ms";
          "expected_gbps";
          "within10pct_dctcp";
          "within10pct_numfabric";
        ]
      ~notes:
        [
          Printf.sprintf
            "overall: DCTCP %.0f%%, NUMFabric %.0f%% of samples within 10%% of \
             the expected rate"
            (100. *. mean (fun e -> e.within_fraction_dctcp))
            (100. *. mean (fun e -> e.within_fraction_numfabric));
          "paper: DCTCP essentially never stays within 10%; NUMFabric does";
          "full rate series in the run record (nf_run exp fig4bc --record)";
        ]
      (List.map
         (fun e ->
           [
             Report.float (e.from_t *. 1e3);
             Report.float (e.until_t *. 1e3);
             Report.float (e.expected /. 1e9);
             Report.float e.within_fraction_dctcp;
             Report.float e.within_fraction_numfabric;
           ])
         t.epochs)
  in
  { report with Report.records = t.records }
