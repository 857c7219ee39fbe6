module Network = Nf_sim.Network
module Semidynamic = Nf_workload.Semidynamic

let leaf_spine () =
  Nf_topo.Builders.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:4 ()

let default_setup ~seed ~n_events =
  let base = Support.default_semidyn ~seed ~n_events in
  {
    base with
    Support.n_paths = 40;
    flows_per_event = 6;
    active_min = 12;
    active_max = 20;
    criteria = { base.Support.criteria with sustain = 0.5e-3; max_time = 4e-3 };
  }

let sample_every = 20e-6

(* One flow per activation of a path; [stop] is the event that ends it. *)
type flow = { id : int; path : int; start : float; mutable stop : float option }

(* The flows in activation (= id) order, and each epoch's flow ids in the
   order of [Semidynamic.active_after], which is the order of the epoch's
   problem and target. Event k happens at [k * epoch]. *)
let schedule (w : Semidynamic.t) ~epoch =
  let latest = Array.make (Array.length w.Semidynamic.pairs) None in
  let flows = ref [] in
  let n_flows = ref 0 in
  let activate at path =
    let f = { id = !n_flows; path; start = at; stop = None } in
    incr n_flows;
    latest.(path) <- Some f;
    flows := f :: !flows
  in
  let ids k =
    Array.of_list
      (List.map
         (fun path -> (Option.get latest.(path)).id)
         (Semidynamic.active_after w k))
  in
  List.iter (activate 0.) w.Semidynamic.initial;
  let first = ids 0 in
  let later =
    List.mapi
      (fun k ev ->
        let at = float_of_int (k + 1) *. epoch in
        List.iter (activate at) ev.Semidynamic.started;
        List.iter
          (fun path -> (Option.get latest.(path)).stop <- Some at)
          ev.Semidynamic.stopped;
        ids (k + 1))
      w.Semidynamic.events
  in
  (List.rev !flows, Array.of_list (first :: later))

(* The epoch's sample instants: [sample_every] apart from
   [t_start + sample_every], accumulated (each carries the sum's
   rounding), while before [t_end]. *)
let sample_instants ~t_start ~t_end =
  let rec from t acc =
    if t < t_end then from (t +. sample_every) (t :: acc)
    else Array.of_list (List.rev acc)
  in
  from (t_start +. sample_every) []

let semidyn ~config
    ?(protocol = Nf_sim.Protocols.get "numfabric")
    (scenario : Support.semidyn_scenario) =
  let setup = scenario.Support.setup in
  let criteria = setup.Support.criteria in
  let epoch = criteria.Nf_fluid.Convergence.max_time in
  let pairs = scenario.Support.workload.Semidynamic.pairs in
  let flows, epoch_ids = schedule scenario.Support.workload ~epoch in
  let net = Network.create ~config ~topology:scenario.Support.topology ~protocol () in
  let needs_utility = Nf_sim.Protocol.needs_utility protocol in
  List.iter
    (fun f ->
      let { Nf_workload.Traffic.src; dst } = pairs.(f.path) in
      let utility = if needs_utility then Some (setup.Support.utility_of f.path) else None in
      Network.add_flow net
        (Network.flow ~path:scenario.Support.paths.(f.path) ?utility ~start:f.start
           ~id:f.id ~src ~dst ());
      Option.iter (Network.stop_flow_at net ~id:f.id) f.stop)
    flows;
  let rise = Nf_util.Ewma.rise_time_90 ~tau:config.Nf_sim.Config.rate_measure_tau in
  let times = ref [] in
  let unconverged = ref 0 in
  (* Let the initial population settle through epoch 0, then measure each
     event epoch. *)
  Array.iteri
    (fun k ids ->
      let t_start = float_of_int k *. epoch in
      let t_end = t_start +. epoch in
      let instants = sample_instants ~t_start ~t_end in
      let rates = Array.make (Array.length ids) Float.nan in
      let sample j =
        Network.run net ~until:instants.(j);
        Array.iteri
          (fun slot id ->
            rates.(slot) <-
              Option.value (Network.measured_rate net id) ~default:Float.nan)
          ids;
        rates
      in
      let entry =
        Nf_fluid.Convergence.sustained criteria ~period:sample_every
          ~last:(Array.length instants - 1)
          ~target:scenario.Support.targets.(k) sample
      in
      Network.run net ~until:t_end;
      if k > 0 then
        match entry with
        | Some j -> times := Float.max 0. (instants.(j) -. t_start -. rise) :: !times
        | None -> incr unconverged)
    epoch_ids;
  { Support.times = Array.of_list (List.rev !times); unconverged = !unconverged }
