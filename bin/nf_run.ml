(* nf_run: command-line front end for the NUMFabric reproduction.

     nf_run list [--json]              enumerate experiments and protocols
     nf_run exp fig4a [--quick]        run one experiment
     nf_run exp --all -j 4 --json      run the whole sweep on 4 domains
     nf_run exp fig4bc --record out.json   ... and export its run record
     nf_run proto dctcp                smoke-run one transport protocol
     nf_run solve ...                  one-off allocation on a leaf-spine

   Experiments come from the [Nf_experiments.Registry]; transport
   protocols from [Nf_sim.Protocols]. Neither list is maintained here.

   Determinism contract: everything on stdout (text, JSON, CSV) is pure
   report data and byte-identical whatever [-j] is; timings and the
   per-task summary go to stderr. *)

module E = Nf_experiments
module Json = Nf_util.Json

open Cmdliner

let list_cmd =
  let doc = "List the available experiments and transport protocols." in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the listing as JSON.")
  in
  let run json =
    if json then begin
      let entry name description =
        Json.Obj [ ("name", Json.Str name); ("description", Json.Str description) ]
      in
      let exps =
        List.map
          (fun e -> entry e.E.Registry.name e.E.Registry.description)
          (E.Registry.all ())
      in
      let protos =
        List.map
          (fun name ->
            entry name (Nf_sim.Protocol.description (Nf_sim.Protocols.get name)))
          (Nf_sim.Protocols.names ())
      in
      let listing = [ ("experiments", Json.List exps); ("protocols", Json.List protos) ] in
      print_endline (Json.to_string (Json.Obj listing))
    end
    else begin
      Format.printf "Experiments (nf_run exp NAME):@.";
      List.iter
        (fun e ->
          Format.printf "  %-12s %s@." e.E.Registry.name e.E.Registry.description)
        (E.Registry.all ());
      Format.printf "@.Transport protocols (nf_run proto NAME):@.";
      List.iter
        (fun name ->
          let p = Nf_sim.Protocols.get name in
          Format.printf "  %-14s %s@." name (Nf_sim.Protocol.description p))
        (Nf_sim.Protocols.names ())
    end
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ json_arg)

let quick_arg =
  let doc =
    "Run a scaled-down version (for smoke tests). Deprecated spelling of \
     $(b,--scale) 0.2."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* Observability flags, shared by `exp' and `proto'. *)

let trace_arg =
  let doc =
    "Stream structured trace events (enqueues, drops, price updates, \
     solver iterations, ...) to $(docv) as JSONL, one event per line."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "After the run, write the global metrics registry to $(docv) — \
     Prometheus text exposition, or JSON if $(docv) ends in .json."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Account wall-clock time and allocated bytes per event-handler \
     category and print \"where did the time go\" / \"where did the \
     bytes go\" tables after the run."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let diag_arg =
  let doc =
    "Attach per-iteration xWI solver diagnostics to every solver state \
     created during the run; any non-converged solve dumps a JSONL \
     postmortem (recent residuals, worst links) into $(docv). Implies \
     -j 1."
  in
  Arg.(value & opt (some string) None & info [ "diag" ] ~docv:"DIR" ~doc)

let mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
    Format.eprintf "cannot create %s: %s@." dir (Unix.error_message e);
    exit 1

(* Install the requested sinks, run [f], then flush/report them. The
   status chatter goes to stderr so stdout stays pure report data. *)
let with_observability ~trace ~metrics ~profile ~diag f =
  let module Trace = Nf_util.Trace in
  let module Metrics = Nf_util.Metrics in
  let module Profile = Nf_util.Profile in
  let module Gcstats = Nf_util.Gcstats in
  let sink =
    match trace with
    | None -> None
    | Some path ->
      let tr = Trace.make ~path () in
      Trace.set_default tr;
      Some (tr, path)
  in
  if profile then begin
    Profile.reset ();
    Profile.set_enabled true;
    Gcstats.reset ();
    Gcstats.set_enabled true
  end;
  (match diag with
  | None -> ()
  | Some dir ->
    mkdir_p dir;
    Nf_num.Diag.configure (Some (Nf_num.Diag.default_config ~dir)));
  f ();
  (match sink with
  | None -> ()
  | Some (tr, path) ->
    Trace.close tr;
    Trace.set_default Trace.null;
    Format.eprintf "(trace: %d events written to %s)@." (Trace.emitted tr) path);
  (match diag with
  | None -> ()
  | Some dir ->
    (* Re-registering returns the existing metric, so the counters the
       solver bumped are readable here by name. *)
    let runs = Metrics.counter Metrics.global "nf_xwi_runs_total" in
    let nonconv = Metrics.counter Metrics.global "nf_xwi_nonconverged_total" in
    Format.eprintf
      "(diag: %d of %d xWI runs hit their iteration cap; %d postmortem%s \
       written to %s)@."
      (Metrics.counter_value nonconv)
      (Metrics.counter_value runs)
      (Nf_num.Diag.postmortems_written ())
      (if Nf_num.Diag.postmortems_written () = 1 then "" else "s")
      dir;
    Nf_num.Diag.configure None);
  if profile then Gcstats.publish ();
  (match metrics with
  | None -> ()
  | Some path -> (
    let text =
      if Filename.check_suffix path ".json" then Metrics.to_json Metrics.global
      else Metrics.to_prometheus Metrics.global
    in
    match
      let oc = open_out path in
      output_string oc text;
      close_out oc
    with
    | () -> Format.eprintf "(metrics written to %s)@." path
    | exception Sys_error msg ->
      Format.eprintf "cannot write metrics: %s@." msg;
      exit 1));
  if profile then begin
    Profile.set_enabled false;
    Gcstats.set_enabled false;
    Format.eprintf "@.Where did the time go:@.%a@." Profile.pp_table ();
    Format.eprintf "@.Where did the bytes go:@.%a@."
      (Gcstats.pp_table ~name_of:Profile.cat_name)
      ()
  end

let record_arg =
  let doc =
    "Write the run record (queue/price/rate/drops/fct series of every \
     packet-level network the experiment ran) to $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)

let export_records path =
  let json = E.Support.records_json () in
  match
    let oc = open_out path in
    output_string oc json;
    output_char oc '\n';
    close_out oc
  with
  | () -> Format.eprintf "(run record written to %s)@." path
  | exception Sys_error msg ->
    Format.eprintf "cannot write run record: %s@." msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* exp: run one experiment or the whole sweep through [Runner]. *)

let failure_text = function
  | E.Runner.Timed_out budget ->
    Printf.sprintf "timed out (no attempt finished within %gs)" budget
  | E.Runner.Failed msg -> Printf.sprintf "failed: %s" msg

let render_text ~all results =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (r : E.Runner.result) ->
      if all then Buffer.add_string buf (Printf.sprintf "==== %s ====\n" r.E.Runner.task_name);
      (match r.E.Runner.outcome with
      | Ok report -> Buffer.add_string buf (E.Report.to_text report)
      | Error f ->
        Buffer.add_string buf (Printf.sprintf "%s: %s\n" r.E.Runner.task_name (failure_text f)));
      if all then Buffer.add_char buf '\n')
    results;
  Buffer.contents buf

let report_json_entry (r : E.Runner.result) =
  let status =
    match r.E.Runner.outcome with
    | Ok report -> [ ("status", Json.Str "ok"); ("report", E.Report.json report) ]
    | Error (E.Runner.Timed_out budget) ->
      [
        ("status", Json.Str "timed_out");
        ("error", Json.Str (Printf.sprintf "no attempt finished within %gs" budget));
      ]
    | Error (E.Runner.Failed msg) ->
      [ ("status", Json.Str "failed"); ("error", Json.Str msg) ]
  in
  Json.Obj (("name", Json.Str r.E.Runner.task_name) :: status)

(* The merged envelope records the context (so a consumer can tell a
   --quick artifact from a full one) but no wall-clock data. *)
let render_json ~scale ~seed results =
  Json.to_string
    (Json.Obj
       [
         ("scale", Json.Num scale);
         ("seed", Json.Num (float_of_int seed));
         ("reports", Json.List (List.map report_json_entry results));
       ])
  ^ "\n"

let render_csv ~all results =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (r : E.Runner.result) ->
      if all then
        Buffer.add_string buf (Printf.sprintf "# experiment: %s\n" r.E.Runner.task_name);
      (match r.E.Runner.outcome with
      | Ok report -> Buffer.add_string buf (E.Report.to_csv report)
      | Error f ->
        Buffer.add_string buf
          (Printf.sprintf "# %s %s\n" r.E.Runner.task_name (failure_text f)));
      if all then Buffer.add_char buf '\n')
    results;
  Buffer.contents buf

let write_output ~out data =
  match out with
  | None -> print_string data
  | Some path -> (
    match
      let oc = open_out path in
      output_string oc data;
      close_out oc
    with
    | () -> Format.eprintf "(report written to %s)@." path
    | exception Sys_error msg ->
      Format.eprintf "cannot write report: %s@." msg;
      exit 1)

let run_experiments name all jobs timeout retries quick scale seed json csv out
    record trace metrics profile diag =
  let tasks =
    if all then List.map E.Runner.of_entry (E.Registry.all ())
    else
      match name with
      | None ->
        Format.eprintf "give an experiment NAME or --all; try `nf_run list'@.";
        exit 2
      | Some n -> (
        match E.Registry.find n with
        | Some e -> [ E.Runner.of_entry e ]
        | None ->
          Format.eprintf "unknown experiment %S; try `nf_run list'@." n;
          exit 2)
  in
  if json && csv then begin
    Format.eprintf "choose at most one of --json and --csv@.";
    exit 2
  end;
  let scale =
    match scale with Some s -> s | None -> if quick then 0.2 else 1.0
  in
  let ctx =
    match E.Ctx.make ~scale ~seed () with
    | ctx -> ctx
    | exception Invalid_argument msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  let jobs =
    (* The profiler, the default trace sink, and the diag postmortem
       counter are process-global and not domain-safe; observability runs
       are forced serial. *)
    if jobs > 1 && (profile || trace <> None || diag <> None) then begin
      Format.eprintf
        "(--profile/--trace/--diag are not domain-safe; forcing -j 1)@.";
      1
    end
    else jobs
  in
  E.Support.reset_records ();
  let results = ref [] in
  (* Wall-clock on purpose: this is the elapsed time shown to the user,
     not anything that feeds a run record. *)
  let t0 = (Unix.gettimeofday () [@nf.allow "determinism"]) in
  with_observability ~trace ~metrics ~profile ~diag (fun () ->
      results := E.Runner.run ~jobs ?timeout ~retries ~ctx tasks);
  let elapsed = (Unix.gettimeofday () [@nf.allow "determinism"]) -. t0 in
  let results = !results in
  let data =
    if json then render_json ~scale ~seed results
    else if csv then render_csv ~all results
    else render_text ~all results
  in
  write_output ~out data;
  (match record with Some path -> export_records path | None -> ());
  (* [total_wall] sums the tasks' own walls, taken while they contend
     for the machine: it is work done, not what a serial run would take. *)
  let task_seconds = E.Runner.total_wall results in
  Format.eprintf "%a" E.Runner.pp_summary results;
  Format.eprintf "(ran %d experiment%s in %.1f s wall; %.1f task-seconds; jobs=%d)@."
    (List.length results)
    (if List.length results = 1 then "" else "s")
    elapsed task_seconds jobs;
  if
    List.exists
      (fun r -> match r.E.Runner.outcome with Ok _ -> false | Error _ -> true)
      results
  then exit 1

let jobs_arg =
  let doc =
    "Worker-pool width: shard the experiments across $(docv) domains. \
     Output is byte-identical whatever $(docv) is."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc =
    "Per-experiment wall-clock budget in seconds; a timed-out attempt is \
     abandoned and retried (see --retries)."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc =
    "Extra attempts after a transient failure (solver non-convergence, \
     timeout); each retry perturbs the experiment's RNG seed."
  in
  Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)

let scale_arg =
  let doc =
    "Scenario scale factor: 1.0 is the paper's setup, 0.2 the smoke \
     scale. Overrides --quick."
  in
  Arg.(value & opt (some float) None & info [ "scale" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "RNG seed base, offset per task; 0 reproduces EXPERIMENTS.md." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit reports as JSON.")

let csv_flag = Arg.(value & flag & info [ "csv" ] ~doc:"Emit reports as CSV.")

let out_arg =
  let doc = "Write the rendered reports to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let exp_cmd =
  let doc =
    "Run one experiment by name, or the whole sweep with $(b,--all) \
     (see $(b,nf_run list))."
  in
  let name_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME") in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Run every registered experiment.")
  in
  Cmd.v (Cmd.info "exp" ~doc)
    Term.(
      const run_experiments $ name_arg $ all_arg $ jobs_arg $ timeout_arg
      $ retries_arg $ quick_arg $ scale_arg $ seed_arg $ json_flag $ csv_flag
      $ out_arg $ record_arg $ trace_arg $ metrics_arg $ profile_arg
      $ diag_arg)

(* Smoke-run one registered transport: two finite flows over a shared
   10 Gbps bottleneck, report FCTs and the link counters. Exercises the
   whole protocol stack (queue disc, feedback engine, flow hooks) for any
   protocol selected by registry name. *)
let proto_cmd =
  let doc =
    "Run a 2-flow single-bottleneck scenario under the named transport \
     protocol (see $(b,nf_run list))."
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL")
  in
  let record_arg =
    let doc = "Write the scenario's run record to $(docv) as JSON." in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)
  in
  let run name record_path trace metrics profile =
    match Nf_sim.Protocols.find name with
    | None ->
      Format.eprintf "unknown protocol %S (known: %s)@." name
        (String.concat ", " (Nf_sim.Protocols.names ()));
      exit 2
    | Some protocol ->
      with_observability ~trace ~metrics ~profile ~diag:None @@ fun () ->
      let module Network = Nf_sim.Network in
      let module Builders = Nf_topo.Builders in
      let sb = Builders.single_bottleneck ~n_senders:2 () in
      let config =
        { Nf_sim.Config.default with Nf_sim.Config.record_rates = true }
      in
      let net =
        Network.create ~config ~topology:sb.Builders.sb_topo ~protocol ()
      in
      Network.monitor_links net ~links:[ sb.Builders.bottleneck ] ~every:50e-6;
      let size = 600_000. in
      let utility () =
        if Nf_sim.Protocol.needs_utility protocol then
          Some (Nf_num.Utility.proportional_fair ())
        else None
      in
      Array.iteri
        (fun i src ->
          Network.add_flow net
            (Network.flow ?utility:(utility ()) ~size ~id:i ~src
               ~dst:sb.Builders.receiver ()))
        sb.Builders.senders;
      Network.run net ~until:0.05;
      Format.printf "@[<v>protocol %s: 2 x %.0f KB over a shared 10 Gbps \
                     bottleneck@," name (size /. 1e3);
      Array.iteri
        (fun i _ ->
          match Network.fct net i with
          | Some fct ->
            Format.printf "  flow %d: done in %.0f us (%.0f KB received)@," i
              (fct *. 1e6)
              (Network.received_bytes net i /. 1e3)
          | None ->
            Format.printf "  flow %d: DID NOT FINISH (%.0f KB received)@," i
              (Network.received_bytes net i /. 1e3))
        sb.Builders.senders;
      Format.printf "  bottleneck: %.0f KB delivered, %d drops total@]@."
        (Network.link_delivered_bytes net ~link:sb.Builders.bottleneck /. 1e3)
        (Network.total_drops net);
      (match record_path with
      | Some path -> (
        match Nf_sim.Record.write_json (Network.record net) ~path with
        | () -> Format.printf "(run record written to %s)@." path
        | exception Sys_error msg ->
          Format.eprintf "cannot write run record: %s@." msg;
          exit 1)
      | None -> ());
      if Array.exists (fun i -> Network.fct net i = None)
           (Array.mapi (fun i _ -> i) sb.Builders.senders)
      then exit 1
  in
  Cmd.v (Cmd.info "proto" ~doc)
    Term.(
      const run $ name_arg $ record_arg $ trace_arg $ metrics_arg $ profile_arg)

let solve_cmd =
  let doc =
    "Solve a one-off NUM allocation: N flows on random leaf-spine paths."
  in
  let flows_arg =
    Arg.(value & opt int 8 & info [ "flows"; "n" ] ~docv:"N" ~doc:"Flow count.")
  in
  let alpha_arg =
    Arg.(
      value & opt float 1.
      & info [ "alpha" ] ~docv:"ALPHA" ~doc:"Fairness parameter.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let run n alpha seed =
    let ls = Nf_topo.Builders.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:4 () in
    let rng = Nf_util.Rng.create ~seed in
    let pairs =
      Nf_workload.Traffic.random_pairs rng ~hosts:ls.Nf_topo.Builders.servers ~n
    in
    let demands =
      Array.to_list
        (Array.mapi
           (fun i { Nf_workload.Traffic.src; dst } ->
             Nf_core.Fabric.demand ~key:i ~src ~dst ())
           pairs)
    in
    let plan =
      Nf_core.Fabric.plan ~topology:ls.Nf_topo.Builders.topo
        ~objective:(Nf_core.Objective.Alpha_fairness { alpha })
        ~demands
    in
    Format.printf "@[<v>Optimal alpha-fair (alpha = %g) allocation:@," alpha;
    List.iter
      (fun (key, rate) ->
        let { Nf_workload.Traffic.src; dst } = pairs.(key) in
        Format.printf "  flow %d (%d -> %d): %.3f Gbps@," key src dst (rate /. 1e9))
      (Nf_core.Fabric.optimal plan);
    Format.printf "@]@."
  in
  Cmd.v (Cmd.info "solve" ~doc) Term.(const run $ flows_arg $ alpha_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* serve / serve-drive: the always-on allocation service and its
   scripted churn client (DESIGN.md "Serve & delta API"). Both sides
   build the same Scenario so the daemon's link set and the driver's
   path pool agree. *)

module Serve = Nf_serve

let serve_port_arg =
  let doc = "Loopback TCP port to listen on (0 picks an ephemeral port)." in
  Arg.(value & opt int 7070 & info [ "port" ] ~docv:"PORT" ~doc)

let serve_socket_arg =
  let doc = "Listen on a Unix-domain socket at $(docv) instead of TCP." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let leaves_arg =
  Arg.(value & opt int 8 & info [ "leaves" ] ~docv:"N" ~doc:"Leaf switches.")

let spines_arg =
  Arg.(value & opt int 4 & info [ "spines" ] ~docv:"N" ~doc:"Spine switches.")

let per_leaf_arg =
  Arg.(
    value & opt int 16
    & info [ "servers-per-leaf" ] ~docv:"N" ~doc:"Servers per leaf.")

let pool_arg =
  Arg.(
    value & opt int 1000
    & info [ "pool" ] ~docv:"N" ~doc:"Candidate-path pool size.")

let topo_seed_arg =
  let doc = "Seed of the scenario's path pool (must match on both sides)." in
  Arg.(value & opt int 42 & info [ "topo-seed" ] ~docv:"SEED" ~doc)

let scenario_of ~leaves ~spines ~per_leaf ~pool ~topo_seed =
  Serve.Scenario.leaf_spine ~n_leaves:leaves ~n_spines:spines
    ~servers_per_leaf:per_leaf ~pool ~seed:topo_seed ()

let serve_cmd =
  let doc =
    "Run the always-on allocation daemon: flow arrival/departure commands \
     as line-delimited JSON, one warm-started xWI epoch per batch, \
     Prometheus metrics on GET /metrics of the same port."
  in
  let tol_arg =
    Arg.(
      value & opt float 1e-6
      & info [ "tol" ] ~docv:"TOL" ~doc:"Per-epoch KKT tolerance.")
  in
  let run port socket leaves spines per_leaf pool topo_seed tol =
    let scenario = scenario_of ~leaves ~spines ~per_leaf ~pool ~topo_seed in
    let engine = Serve.Engine.create ~tol ~caps:scenario.Serve.Scenario.caps () in
    let addr =
      match socket with
      | Some path -> Serve.Server.Unix_sock path
      | None -> Serve.Server.Tcp port
    in
    match Serve.Server.create ~engine addr with
    | srv ->
      (match (Serve.Server.port srv, socket) with
      | Some p, _ -> Format.eprintf "nf_run serve: listening on 127.0.0.1:%d@." p
      | None, Some path -> Format.eprintf "nf_run serve: listening on %s@." path
      | None, None -> ());
      Serve.Server.run srv;
      let s = Serve.Engine.stats engine in
      Format.eprintf
        "nf_run serve: shut down after %d events in %d epochs (%d warm, %d \
         cold); p99 time-to-new-allocation %.3f ms@."
        s.Serve.Engine.total_events s.Serve.Engine.epochs
        s.Serve.Engine.warm_epochs s.Serve.Engine.cold_epochs
        (s.Serve.Engine.p99_latency *. 1e3)
    | exception Unix.Unix_error (e, _, _) ->
      Format.eprintf "nf_run serve: cannot bind: %s@." (Unix.error_message e);
      exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ serve_port_arg $ serve_socket_arg $ leaves_arg $ spines_arg
      $ per_leaf_arg $ pool_arg $ topo_seed_arg $ tol_arg)

let serve_drive_cmd =
  let doc =
    "Drive a scripted churn trace (seeded flow arrivals/departures) \
     against a running $(b,nf_run serve) daemon and report its \
     allocation-latency stats."
  in
  let events_arg =
    Arg.(value & opt int 500 & info [ "events" ] ~docv:"N" ~doc:"Churn events.")
  in
  let target_arg =
    Arg.(
      value & opt int 100
      & info [ "target" ] ~docv:"N" ~doc:"Standing flow population.")
  in
  let drive_seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Churn seed.")
  in
  let scrape_arg =
    Arg.(
      value & flag
      & info [ "scrape" ] ~doc:"Also scrape GET /metrics once (TCP only).")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown command when done.")
  in
  let field_num fields name =
    match List.assoc_opt name fields with
    | Some v -> Option.value (Json.to_float v) ~default:Float.nan
    | None -> Float.nan
  in
  let run port socket leaves spines per_leaf pool topo_seed events target seed
      scrape shutdown =
    let scenario = scenario_of ~leaves ~spines ~per_leaf ~pool ~topo_seed in
    let client =
      match socket with
      | Some path -> Serve.Client.connect_unix path
      | None -> Serve.Client.connect_tcp port
    in
    let rng = Nf_util.Rng.create ~seed in
    (match Serve.Client.drive client ~rng ~scenario ~events ~target with
    | Error reason ->
      Format.eprintf "nf_run serve-drive: drive failed: %s@." reason;
      exit 1
    | Ok rep -> (
      match Serve.Client.request client Serve.Protocol.Stats with
      | Error reason ->
        Format.eprintf "nf_run serve-drive: stats failed: %s@." reason;
        exit 1
      | Ok fields ->
        Format.printf
          "@[<v>drove %d events (%d arrivals, %d departures)@,\
           server: %.0f epochs (%.0f warm, %.0f cold) over %.0f events@,\
           iterations: %.0f warm total, %.0f cold total@,\
           time-to-new-allocation: p50 %.3f ms, p99 %.3f ms, mean %.3f ms@]@."
          rep.Serve.Client.driven rep.Serve.Client.arrivals
          rep.Serve.Client.departures (field_num fields "epochs")
          (field_num fields "warm_epochs")
          (field_num fields "cold_epochs")
          (field_num fields "events")
          (field_num fields "warm_iters")
          (field_num fields "cold_iters")
          (field_num fields "p50_latency" *. 1e3)
          (field_num fields "p99_latency" *. 1e3)
          (field_num fields "mean_latency" *. 1e3)));
    if scrape then begin
      match Serve.Client.scrape_metrics port with
      | Ok body ->
        let has_serve_metrics =
          let re = "nf_serve_epochs_total" in
          let n = String.length body and m = String.length re in
          let rec find i =
            i + m <= n && (String.equal (String.sub body i m) re || find (i + 1))
          in
          find 0
        in
        if not has_serve_metrics then begin
          Format.eprintf
            "nf_run serve-drive: scrape has no nf_serve_epochs_total@.";
          exit 1
        end;
        Format.printf "(metrics scrape ok: %d bytes)@." (String.length body)
      | Error reason ->
        Format.eprintf "nf_run serve-drive: scrape failed: %s@." reason;
        exit 1
    end;
    if shutdown then
      ignore (Serve.Client.request client Serve.Protocol.Shutdown);
    Serve.Client.close client
  in
  Cmd.v (Cmd.info "serve-drive" ~doc)
    Term.(
      const run $ serve_port_arg $ serve_socket_arg $ leaves_arg $ spines_arg
      $ per_leaf_arg $ pool_arg $ topo_seed_arg $ events_arg $ target_arg
      $ drive_seed_arg $ scrape_arg $ shutdown_arg)

let () =
  let doc = "NUMFabric (SIGCOMM 2016) reproduction toolkit" in
  let info = Cmd.info "nf_run" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            exp_cmd;
            proto_cmd;
            solve_cmd;
            serve_cmd;
            serve_drive_cmd;
          ]))
