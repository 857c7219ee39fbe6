(* Tests for nf_engine: event ordering, scheduling primitives, periodic
   timers, horizons and stopping. *)

module Sim = Nf_engine.Sim

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

(* The profiling category of every event these tests schedule. *)
let cat = Sim.cat "test"

let test_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_cat sim ~cat ~at:3. (fun () -> log := 3 :: !log);
  Sim.schedule_cat sim ~cat ~at:1. (fun () -> log := 1 :: !log);
  Sim.schedule_cat sim ~cat ~at:2. (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "ordered" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 3. (Sim.now sim);
  Alcotest.(check int) "processed" 3 (Sim.events_processed sim)

let test_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule_cat sim ~cat ~at:1. (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_schedule_from_handler () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_cat sim ~cat ~at:1. (fun () ->
      log := "a" :: !log;
      Sim.schedule_after_cat sim ~cat ~delay:0.5 (fun () -> log := "b" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested scheduling" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "clock" 1.5 (Sim.now sim)

let test_past_rejected () =
  let sim = Sim.create () in
  Sim.schedule_cat sim ~cat ~at:2. (fun () ->
      Alcotest.check_raises "past event names both times"
        (Invalid_argument "Sim.schedule: event in the past (at=1, now=2)")
        (fun () -> Sim.schedule_cat sim ~cat ~at:1. (fun () -> ())));
  Sim.run sim;
  let sim2 = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule_after: negative delay") (fun () ->
      Sim.schedule_after_cat sim2 ~cat ~delay:(-1.) (fun () -> ()))

let test_nan_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Sim.schedule: NaN time")
    (fun () -> Sim.schedule_cat sim ~cat ~at:Float.nan (fun () -> ()));
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Sim.schedule_after: NaN delay") (fun () ->
      Sim.schedule_after_cat sim ~cat ~delay:Float.nan (fun () -> ()));
  Alcotest.(check int) "nothing queued" 0 (Sim.pending sim);
  (* A clock of +inf plus a delay of -inf is NaN too. *)
  Sim.schedule_cat sim ~cat ~at:infinity (fun () ->
      Alcotest.check_raises "NaN computed time"
        (Invalid_argument "Sim.schedule: NaN time") (fun () ->
          Sim.schedule_cat sim ~cat ~at:(Sim.now sim -. infinity) (fun () -> ())));
  Sim.run sim;
  Alcotest.(check int) "only the +inf event ran" 1 (Sim.events_processed sim)

(* An event scheduled far ahead waits in the overflow; one scheduled
   later for the same time lands in the wheel once the window has moved
   up to it. Scheduling order still decides the tie. *)
let test_overflow_wins_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  let at = 1e-3 in
  Sim.schedule_cat sim ~cat ~at (fun () -> log := "far" :: !log);
  Sim.schedule_cat sim ~cat ~at:(at -. 1e-6) (fun () ->
      Sim.schedule_cat sim ~cat ~at (fun () -> log := "near" :: !log);
      Sim.schedule_cat sim ~cat ~at:(at +. 1e-9) (fun () -> log := "after" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "scheduling order on the tie"
    [ "far"; "near"; "after" ] (List.rev !log)

let test_until_in_past_keeps_clock () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_cat sim ~cat ~at:3. (fun () -> ());
  Sim.schedule_cat sim ~cat ~at:5. (fun () -> log := 5. :: !log);
  Sim.run ~until:4. sim;
  Sim.run ~until:2. sim;
  Alcotest.(check (float 0.)) "clock does not move back" 4. (Sim.now sim);
  Sim.schedule_cat sim ~cat ~at:4. (fun () -> log := 4. :: !log);
  Sim.run sim;
  Alcotest.(check (list (float 0.))) "order after resuming" [ 4.; 5. ]
    (List.rev !log)

(* Handlers are accounted under their scheduling category when profiling
   is on. *)
let test_profile_categories () =
  let module Profile = Nf_util.Profile in
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    (fun () ->
      let sim = Sim.create () in
      let alpha = Sim.cat "alpha" and beta = Sim.cat "beta" in
      Sim.schedule_cat sim ~cat:alpha ~at:1. (fun () -> ());
      Sim.schedule_cat sim ~cat:alpha ~at:2. (fun () -> ());
      Sim.schedule_cat sim ~cat:beta ~at:3. (fun () -> ());
      Sim.run sim;
      let calls c =
        match
          List.find_opt (fun (n, _, _) -> n = c) (Profile.categories ())
        with
        | Some (_, k, _) -> k
        | None -> 0
      in
      Alcotest.(check int) "alpha handlers" 2 (calls "alpha");
      Alcotest.(check int) "beta handler" 1 (calls "beta"))

let test_until_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Sim.schedule_cat sim ~cat ~at:t (fun () -> fired := t :: !fired))
    [ 1.; 2.; 3.; 4. ];
  Sim.run ~until:2.5 sim;
  Alcotest.(check (list (float 0.))) "fired up to horizon" [ 1.; 2. ]
    (List.rev !fired);
  Alcotest.(check (float 0.)) "clock at horizon" 2.5 (Sim.now sim);
  (* Resume to the end. *)
  Sim.run sim;
  Alcotest.(check int) "all eventually fired" 4 (List.length !fired)

let test_until_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule_cat sim ~cat ~at:2. (fun () -> fired := true);
  Sim.run ~until:2. sim;
  Alcotest.(check bool) "event exactly at the horizon fires" true !fired

let test_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.schedule_cat sim ~cat ~at:(float_of_int i) (fun () ->
        incr count;
        if !count = 3 then Sim.stop sim)
  done;
  Sim.run sim;
  Alcotest.(check int) "stopped after 3" 3 !count;
  Alcotest.(check int) "others pending" 7 (Sim.pending sim)

let test_periodic () =
  let sim = Sim.create () in
  let stamps = ref [] in
  Sim.periodic_cat sim ~cat ~interval:1. (fun () -> stamps := Sim.now sim :: !stamps);
  Sim.run ~until:4.5 sim;
  Alcotest.(check (list (float 1e-12))) "periodic stamps" [ 1.; 2.; 3.; 4. ]
    (List.rev !stamps)

let test_periodic_start () =
  let sim = Sim.create () in
  let stamps = ref [] in
  Sim.periodic_cat sim ~cat ~start:0.25 ~interval:0.5 (fun () ->
      stamps := Sim.now sim :: !stamps);
  Sim.run ~until:1.6 sim;
  Alcotest.(check (list (float 1e-12))) "custom start" [ 0.25; 0.75; 1.25 ]
    (List.rev !stamps)

let test_empty_run_sets_clock () =
  let sim = Sim.create () in
  Sim.run ~until:5. sim;
  Alcotest.(check (float 0.)) "clock advances to horizon" 5. (Sim.now sim)

let prop_events_fire_in_order =
  QCheck.Test.make ~name:"random schedules always fire in time order" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.))
    (fun times ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter
        (fun t -> Sim.schedule_cat sim ~cat ~at:t (fun () -> fired := t :: !fired))
        times;
      Sim.run sim;
      let fired = List.rev !fired in
      fired = List.stable_sort compare times)

(* Differential property: random schedule scripts against a reference
   model, a stable sort of the pending events by time (ties in
   scheduling order). Offsets mix the engine's cases: 0, below one
   2^-26 s bucket, exact ties (multiples of 2^-28 s), inside the
   ~15.3 us calendar window, its end, beyond it, and +inf. Handlers
   schedule children, and phases alternate between [run ~until] (which
   may stop short, so the next phase schedules from the horizon) and
   running dry. *)
type node = { off : float; kids : node list }

type phase = { evs : node list; horizon : float option }

let gen_off =
  QCheck.Gen.(
    frequency
      [
        (2, return 0.);
        (3, map (fun k -> float_of_int k *. 0x1p-28) (int_range 0 8));
        (3, float_range 0. 0x1p-26);
        (4, float_range 0. 15e-6);
        (1, oneofl [ 0x1p-16; 0x1p-16 -. 0x1p-40; 15.3e-6 ]);
        (2, float_range 15.3e-6 2e-3);
        (1, oneofl [ 0.25; 1. ]);
        (1, return infinity);
      ])

let gen_node =
  QCheck.Gen.(
    fix
      (fun self depth ->
        let kids =
          if depth = 0 then return []
          else list_size (int_range 0 3) (self (depth - 1))
        in
        map2 (fun off kids -> { off; kids }) gen_off kids)
      2)

let gen_script =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (map2
         (fun evs horizon -> { evs; horizon })
         (list_size (int_range 1 20) gen_node)
         (opt (float_range 0. 3e-5))))

let print_script script =
  let rec pn n =
    Printf.sprintf "%h%s" n.off
      (if n.kids = [] then ""
       else "[" ^ String.concat " " (List.map pn n.kids) ^ "]")
  in
  String.concat " | "
    (List.map
       (fun ph ->
         String.concat " " (List.map pn ph.evs)
         ^
         match ph.horizon with
         | None -> " ; run"
         | Some h -> Printf.sprintf " ; until +%h" h)
       script)

(* Runs [script] on the engine; returns (id, dispatch time) in order. *)
let run_engine script =
  let sim = Sim.create () in
  let log = ref [] and next_id = ref 0 in
  let rec add n =
    let id = !next_id in
    incr next_id;
    Sim.schedule_cat sim ~cat ~at:(Sim.now sim +. n.off) (fun () ->
        log := (id, Sim.now sim) :: !log;
        List.iter add n.kids)
  in
  List.iter
    (fun ph ->
      List.iter add ph.evs;
      match ph.horizon with
      | None -> Sim.run sim
      | Some h -> Sim.run ~until:(Sim.now sim +. h) sim)
    script;
  List.rev !log

let run_model script =
  let now = ref 0. and pending = ref [] and log = ref [] in
  let next_id = ref 0 in
  let add n =
    let id = !next_id in
    incr next_id;
    pending := !pending @ [ (!now +. n.off, id, n) ]
  in
  let rec run horizon =
    let by_time (a, _, _) (b, _, _) = Float.compare a b in
    match List.stable_sort by_time !pending with
    | [] -> if Float.is_finite horizon then now := Float.max !now horizon
    | (at, _, _) :: _ when at > horizon -> now := Float.max !now horizon
    | (at, id, n) :: rest ->
      pending := rest;
      now := at;
      log := (id, at) :: !log;
      List.iter add n.kids;
      run horizon
  in
  List.iter
    (fun ph ->
      List.iter add ph.evs;
      run (match ph.horizon with None -> infinity | Some h -> !now +. h))
    script;
  List.rev !log

let prop_matches_reference =
  QCheck.Test.make ~name:"dispatch order matches the stable-sort model"
    ~count:500
    (QCheck.make ~print:print_script gen_script)
    (fun script -> run_engine script = run_model script)

let () =
  Alcotest.run "nf_engine"
    [
      ( "sim",
        [
          quick "time order" test_time_order;
          quick "fifo tie-break" test_fifo_ties;
          quick "schedule from handler" test_schedule_from_handler;
          quick "past events rejected" test_past_rejected;
          quick "NaN times rejected" test_nan_rejected;
          quick "overflow wins key ties" test_overflow_wins_ties;
          quick "until in the past keeps the clock"
            test_until_in_past_keeps_clock;
          quick "profiling categories" test_profile_categories;
          quick "until horizon" test_until_horizon;
          quick "until is inclusive" test_until_inclusive;
          quick "stop" test_stop;
          quick "periodic" test_periodic;
          quick "periodic custom start" test_periodic_start;
          quick "empty run sets clock" test_empty_run_sets_clock;
          qcheck prop_events_fire_in_order;
          qcheck prop_matches_reference;
        ] );
    ]
