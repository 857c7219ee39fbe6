(* The workload registry and the metric catalogue.

   Every run reports the same metric names whatever its workload: the
   end-to-end set untraced, the per-layer set traced. A per-layer metric
   of a layer the workload never runs reads 0 (e.g. the sim.* handlers on
   serve_churn); a 0 there is itself the no-change control. *)

let end_to_end = [ ("setup_s", "s"); ("op_p50_ms", "ms"); ("ops_per_s", "1/s") ]

let per_layer =
  [
    ("op.p99_ms", "ms");
    ("calib.pass_ms", "ms");
    ("protocol.codec_us", "us");
    ("problem.ledger_us", "us");
    ("problem.commit_us", "us");
    ("problem.commit_bytes", "B");
    ("xwi.resize_us", "us");
    ("xwi.resize_bytes", "B");
    ("xwi.step_us", "us");
    ("xwi.step_bytes", "B");
    ("kkt.check_us", "us");
    ("kkt.check_bytes", "B");
    ("kkt.checks", "count");
    ("serve.iters_per_epoch", "count");
    ("serve.iters_p99", "count");
    ("xwi.iters", "count");
    ("solve.p50_ms", "ms");
    ("xwi.init_ms", "ms");
    ("maxmin.solve_us", "us");
    ("maxmin.rounds", "count");
    ("maxmin.saturated_links", "count");
    ("topo.route_ms", "ms");
    ("problem.create_ms", "ms");
    ("engine.events", "count");
    ("engine.events_per_s", "1/s");
    ("sim.wall_s_per_sim_s", "s/s");
    ("sim.pkt_arrive_ns", "ns");
    ("sim.pkt_arrive_bytes", "B");
    ("sim.link_tx_ns", "ns");
    ("sim.link_tx_bytes", "B");
    ("sim.price_update_ns", "ns");
    ("sim.price_update_bytes", "B");
    ("sim.flow_start_ns", "ns");
    ("sim.flow_start_bytes", "B");
    ("sim.packets_delivered", "count");
    ("sim.drops", "count");
    ("sim.ecn_marks", "count");
    ("sim.flows_completed", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

(* Order a workload's metrics by the catalogue, padding the layers it
   does not run with 0. A metric outside the catalogue, or in the wrong
   unit, is a benchmark bug. *)
let conform catalogue (o : Outcome.t) =
  List.iter
    (fun (m : Outcome.metric) ->
      match List.assoc_opt m.Outcome.name catalogue with
      | Some u when String.equal u m.Outcome.unit_ -> ()
      | _ -> invalid_arg ("Workloads.conform: uncatalogued metric " ^ m.Outcome.name))
    o.Outcome.metrics;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Outcome.metric) -> String.equal m.Outcome.name name) o.Outcome.metrics with
        | Some m -> m
        | None -> Outcome.metric name unit_ 0.)
      catalogue
  in
  { o with Outcome.metrics }

type t = {
  name : string;
  run : tiny:bool -> seconds:int -> seed:int -> trace:bool -> spans_out:string -> Outcome.t;
}

let all =
  [
    {
      name = "serve_churn";
      run =
        (fun ~tiny ~seconds ~seed ~trace ~spans_out ->
          let size = if tiny then Serve_churn.tiny else Serve_churn.full ~seconds in
          Serve_churn.run ~size ~seed ~trace ~spans_out);
    };
    {
      name = "solve_cold";
      run =
        (fun ~tiny ~seconds ~seed ~trace ~spans_out ->
          let size = if tiny then Solve_cold.tiny else Solve_cold.full ~seconds in
          Solve_cold.run ~size ~seed ~trace ~spans_out);
    };
    {
      name = "packet_websearch";
      run =
        (fun ~tiny ~seconds ~seed ~trace ~spans_out ->
          let size = if tiny then Packet_websearch.tiny else Packet_websearch.full ~seconds in
          Packet_websearch.run ~size ~seed ~trace ~spans_out);
    };
  ]

let find name =
  List.find_opt (fun w -> String.equal w.name name) all
  |> Option.map (fun w ->
         {
           w with
           run =
             (fun ~tiny ~seconds ~seed ~trace ~spans_out ->
               conform
                 (if trace then per_layer else end_to_end)
                 (w.run ~tiny ~seconds ~seed ~trace ~spans_out));
         })
