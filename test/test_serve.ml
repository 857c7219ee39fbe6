(* Tests for nf_serve: the JSON codec, the wire protocol, the socket-free
   allocation engine, the churn scenario, and a loopback socket session
   against a live server (driven from a second domain). *)

module Json = Nf_util.Json
module Protocol = Nf_serve.Protocol
module Engine = Nf_serve.Engine
module Server = Nf_serve.Server
module Client = Nf_serve.Client
module Scenario = Nf_serve.Scenario
module Problem = Nf_num.Problem
module Utility = Nf_num.Utility
module Rng = Nf_util.Rng

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

let pf = Utility.proportional_fair

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Json (the codec under the wire protocol) *)

let test_sjson_parse_basics () =
  let p s = Json.parse s in
  Alcotest.(check bool) "null" true (p "null" = Ok Json.Null);
  Alcotest.(check bool) "true" true (p "true" = Ok (Json.Bool true));
  Alcotest.(check bool) "int" true (p "42" = Ok (Json.Num 42.));
  Alcotest.(check bool) "negative exponent" true
    (p "-2.5e3" = Ok (Json.Num (-2500.)));
  Alcotest.(check bool) "string escapes" true
    (p {|"a\"b\\c\n"|} = Ok (Json.Str "a\"b\\c\n"));
  Alcotest.(check bool) "unicode escape to UTF-8" true
    (p {|"é"|} = Ok (Json.Str "\xc3\xa9"));
  Alcotest.(check bool) "nested" true
    (p {|{"a":[1,2],"b":{"c":null}}|}
    = Ok
        (Json.Obj
           [
             ("a", Json.List [ Json.Num 1.; Json.Num 2. ]);
             ("b", Json.Obj [ ("c", Json.Null) ]);
           ]));
  Alcotest.(check bool) "whitespace tolerated" true
    (p " { \"a\" : 1 } " = Ok (Json.Obj [ ("a", Json.Num 1.) ]));
  Alcotest.(check bool) "surrogate pair to one 4-byte scalar" true
    (p {|"\ud83d\ude00"|} = Ok (Json.Str "\240\159\152\128"))

let test_sjson_parse_errors () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "trailing garbage" true (bad "1 x");
  Alcotest.(check bool) "two documents" true (bad "{} {}");
  Alcotest.(check bool) "unterminated string" true (bad {|"abc|});
  Alcotest.(check bool) "bare word" true (bad "flow");
  Alcotest.(check bool) "unclosed object" true (bad {|{"a":1|});
  Alcotest.(check bool) "missing colon" true (bad {|{"a" 1}|});
  Alcotest.(check bool) "lone high surrogate" true (bad {|"\ud83d"|});
  Alcotest.(check bool) "high surrogate then a non-surrogate" true
    (bad {|"\ud83d\u0041"|});
  Alcotest.(check bool) "lone low surrogate" true (bad {|"\ude00x"|})

let test_sjson_print_roundtrip () =
  let docs =
    [
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("gid", Json.Num 17.);
          ("rate", Json.Num 3.0517578125e9);
          ("name", Json.Str "serve \"smoke\"\n");
          ("xs", Json.List [ Json.Null; Json.Num (-0.5) ]);
        ];
      Json.List [];
      Json.Obj [];
    ]
  in
  List.iter
    (fun d ->
      match Json.parse (Json.to_string d) with
      | Ok d' -> Alcotest.(check bool) "print/parse round-trip" true (d = d')
      | Error e -> Alcotest.failf "re-parse failed: %s" e)
    docs;
  (* nan and ±inf have no JSON representation; the printer degrades
     them to null. *)
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%g prints null" f) "null"
        (Json.to_string (Json.Num f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let prop_sjson_float_roundtrip =
  QCheck.Test.make ~name:"floats survive print -> parse bit-exactly" ~count:300
    QCheck.(float_range (-1e15) 1e15)
    (fun f ->
      match Json.parse (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') ->
        Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
      | Ok _ | Error _ -> false)

(* Structural equality with bit-exact numbers: [=] would call NaN
   unequal to itself and conflate 0. with -0.; the wire contract is
   "the bits you printed are the bits you get back". *)
let rec sjson_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> Bool.equal x y
  | Json.Num x, Json.Num y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Str x, Json.Str y -> String.equal x y
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 sjson_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', v') -> String.equal k k' && sjson_equal v v')
         xs ys
  | _ -> false

(* Finite floats only: the printer deliberately degrades nan/inf to
   null (JSON has no spelling for them), which the dedicated case in
   test_sjson_print_roundtrip covers. *)
let gen_sjson_num =
  QCheck.Gen.(
    oneof
      [
        map float_of_int int;
        map
          (fun (a, b) -> float_of_int a /. (float_of_int (abs b) +. 1.))
          (pair int int);
        oneofl
          [ 0.; -0.; 1e-308; 1.7976931348623157e308; 3.0517578125e9; -2.5e3 ];
      ])

(* Strings over the full byte range: bytes < 0x20 exercise the \u
   escapes, bytes >= 0x80 the raw UTF-8 passthrough. *)
let gen_sjson_string =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12))

let gen_sjson_doc =
  QCheck.Gen.(
    sized_size (int_range 0 4) @@ fix
    @@ fun self n ->
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun f -> Json.Num f) gen_sjson_num;
          map (fun s -> Json.Str s) gen_sjson_string;
        ]
    in
    if n = 0 then leaf
    else
      oneof
        [
          leaf;
          map
            (fun xs -> Json.List xs)
            (list_size (int_range 0 4) (self (n - 1)));
          map
            (fun kvs -> Json.Obj kvs)
            (list_size (int_range 0 4) (pair gen_sjson_string (self (n - 1))));
        ])

let arb_sjson_doc = QCheck.make ~print:Json.to_string gen_sjson_doc

let prop_sjson_doc_roundtrip =
  QCheck.Test.make ~name:"random documents survive print -> parse" ~count:500
    arb_sjson_doc (fun d ->
      match Json.parse (Json.to_string d) with
      | Ok d' -> sjson_equal d d'
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

(* Mutate a printed document (truncate / flip a byte / insert a byte)
   and demand the parser either accepts it or returns Error — never
   raises (an exception fails the property). *)
let prop_sjson_parser_fails_cleanly =
  QCheck.Test.make ~name:"mutated documents fail cleanly" ~count:500
    QCheck.(
      make
        ~print:(fun (d, pos, byte, mode) ->
          Printf.sprintf "%s pos=%d byte=%d mode=%d" (Json.to_string d) pos
            byte mode)
        Gen.(quad gen_sjson_doc (int_range 0 1000) (int_range 0 255)
               (int_range 0 2)))
    (fun (d, pos, byte, mode) ->
      let s = Json.to_string d in
      let n = String.length s in
      let s =
        if n = 0 then s
        else
          let pos = pos mod (n + 1) in
          match mode with
          | 0 -> String.sub s 0 (min pos n)  (* truncate *)
          | 1 when pos < n ->
            String.mapi (fun i c -> if i = pos then Char.chr byte else c) s
          | _ ->
            String.sub s 0 pos ^ String.make 1 (Char.chr byte)
            ^ String.sub s pos (n - pos)
      in
      match Json.parse s with
      | Ok _ -> true
      | Error e -> String.length e > 0)

let test_sjson_malformed_corpus () =
  let corpus =
    [
      "{"; "["; "]"; "}"; "{]"; "[}"; "nul"; "tru"; "falsy"; "+1"; "--1";
      "1e"; "1e+"; "1.2.3"; "[1 2]"; "[1,]"; "[,1]"; "{\"a\":}"; "{\"a\":1,}";
      "{\"a\" \"b\"}"; "{a:1}"; "\"\\q\""; "\"\\u12"; "\"\\u123g\"";
      "\"\x01\""; "\x00"; "\xff"; "{\"a\":1}garbage"; "[[[["; "\"";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted malformed input %S" s
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error for %S carries a message" s)
          true
          (String.length e > 0))
    corpus

let test_sjson_accessors () =
  let doc =
    Json.Obj
      [
        ("i", Json.Num 3.);
        ("f", Json.Num 0.5);
        ("s", Json.Str "x");
        ("l", Json.List [ Json.Num 1. ]);
      ]
  in
  Alcotest.(check (option int)) "obj_int" (Some 3) (Json.obj_int "i" doc);
  Alcotest.(check (option int)) "obj_int rejects fraction" None
    (Json.obj_int "f" doc);
  Alcotest.(check bool) "obj_float" true (Json.obj_float "f" doc = Some 0.5);
  Alcotest.(check (option string)) "obj_str" (Some "x") (Json.obj_str "s" doc);
  Alcotest.(check bool) "obj_list" true
    (Json.obj_list "l" doc = Some [ Json.Num 1. ]);
  Alcotest.(check (option int)) "missing member" None (Json.obj_int "zz" doc);
  Alcotest.(check bool) "member on non-object" true
    (Json.member "a" (Json.Num 1.) = None)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let all_commands =
  [
    Protocol.Add
      { utility = Protocol.Pf { weight = 1.5 }; paths = [ [| 0; 2 |] ] };
    Protocol.Add
      {
        utility = Protocol.Alpha { weight = 2.; alpha = 0.5 };
        paths = [ [| 1 |]; [| 3; 4 |] ];
      };
    Protocol.Add
      { utility = Protocol.Fct { size = 1e6; eps = 0.125 }; paths = [ [| 0 |] ] };
    Protocol.Remove { gid = 12 };
    Protocol.Set_cap { link = 3; cap = 1e10 };
    Protocol.Solve;
    Protocol.Query { gid = 7 };
    Protocol.Stats;
    Protocol.Subscribe;
    Protocol.Ping;
    Protocol.Shutdown;
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun c ->
      let line = Protocol.encode_command c in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      match Protocol.decode_command line with
      | Ok c' -> Alcotest.(check bool) "round-trips" true (c = c')
      | Error e -> Alcotest.failf "decode of %s failed: %s" line e)
    all_commands

let test_protocol_decode_errors () =
  let bad s =
    match Protocol.decode_command s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "not json" true (bad "hello");
  Alcotest.(check bool) "unknown cmd" true (bad {|{"cmd":"frobnicate"}|});
  Alcotest.(check bool) "missing gid" true (bad {|{"cmd":"remove"}|});
  Alcotest.(check bool) "add without paths" true
    (bad {|{"cmd":"add","utility":{"kind":"pf","weight":1}}|});
  Alcotest.(check bool) "non-integer link id" true
    (bad {|{"cmd":"set_cap","link":1.5,"cap":1e9}|})

let test_protocol_replies () =
  (match Protocol.decode_reply (Protocol.ok [ ("gid", Json.Num 4.) ]) with
  | Ok fields ->
    Alcotest.(check (option int)) "field preserved" (Some 4)
      (Json.obj_int "gid" (Json.Obj fields))
  | Error e -> Alcotest.failf "ok reply decoded as error: %s" e);
  (match Protocol.decode_reply (Protocol.error "no such gid") with
  | Ok _ -> Alcotest.fail "error reply decoded as ok"
  | Error reason ->
    Alcotest.(check string) "reason carried" "no such gid" reason);
  match Protocol.decode_reply "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_epochs () =
  let e = Engine.create ~caps:[| 10. |] () in
  (* An empty fabric solves trivially. *)
  let ep0 = Engine.solve_epoch e in
  Alcotest.(check int) "empty epoch iterations" 0 ep0.Engine.iterations;
  Alcotest.(check bool) "empty epoch converged" true ep0.Engine.converged;
  Alcotest.(check bool) "empty epoch not warm" false ep0.Engine.warm;
  (* First real epoch is cold, the next one warm. *)
  let a = Engine.add_flow e ~utility:(pf ()) ~paths:[ [| 0 |] ] in
  Alcotest.(check int) "event pending" 1 (Engine.pending_events e);
  let ep1 = Engine.solve_epoch e in
  Alcotest.(check bool) "first populated epoch is cold" false ep1.Engine.warm;
  Alcotest.(check bool) "converged" true ep1.Engine.converged;
  Alcotest.(check int) "pending drained" 0 (Engine.pending_events e);
  let b = Engine.add_flow e ~utility:(pf ()) ~paths:[ [| 0 |] ] in
  let ep2 = Engine.solve_epoch e in
  Alcotest.(check bool) "second epoch is warm" true ep2.Engine.warm;
  Alcotest.(check int) "two flows" 2 ep2.Engine.n_flows;
  (* Equal shares on the single link, through the gid-keyed accessor. *)
  (match (Engine.group_rate e a, Engine.group_rate e b) with
  | Some ra, Some rb ->
    Alcotest.(check bool) "equal shares" true
      (Nf_util.Fcmp.rel_eq ~rel:1e-6 ra 5.
      && Nf_util.Fcmp.rel_eq ~rel:1e-6 rb 5.)
  | _ -> Alcotest.fail "live gids must have rates");
  (* Departure: reads resolve pending events implicitly. *)
  Engine.remove_flow e a;
  Alcotest.(check bool) "departed gid has no rate" true
    (Engine.group_rate e a = None);
  (match Engine.group_rate e b with
  | Some rb ->
    Alcotest.(check bool) "survivor takes the link" true
      (Nf_util.Fcmp.rel_eq ~rel:1e-6 rb 10.)
  | None -> Alcotest.fail "survivor lost its rate");
  Alcotest.(check int) "rates sized to live flows" 1
    (Array.length (Engine.rates e));
  let s = Engine.stats e in
  Alcotest.(check int) "events counted" 3 s.Engine.total_events;
  Alcotest.(check bool) "warm epochs counted" true (s.Engine.warm_epochs >= 2);
  (* the trivial empty epoch and the first populated one are both cold *)
  Alcotest.(check int) "cold epochs counted" 2 s.Engine.cold_epochs;
  Alcotest.(check bool) "p99 covers p50" true
    (s.Engine.p99_latency >= s.Engine.p50_latency)

let test_engine_set_cap () =
  let e = Engine.create ~caps:[| 10. |] () in
  let a = Engine.add_flow e ~utility:(pf ()) ~paths:[ [| 0 |] ] in
  ignore (Engine.solve_epoch e : Engine.epoch);
  Engine.set_cap e 0 20.;
  (match Engine.group_rate e a with
  | Some r ->
    Alcotest.(check bool) "allocation tracks the new capacity" true
      (Nf_util.Fcmp.rel_eq ~rel:1e-6 r 20.)
  | None -> Alcotest.fail "flow lost its rate");
  let last = Engine.last_epoch e in
  Alcotest.(check bool) "capacity change solved warm" true
    (match last with Some ep -> ep.Engine.warm | None -> false)

let test_engine_emptied_restarts_cold () =
  let e = Engine.create ~caps:[| 10. |] () in
  let a = Engine.add_flow e ~utility:(pf ()) ~paths:[ [| 0 |] ] in
  ignore (Engine.solve_epoch e : Engine.epoch);
  Engine.remove_flow e a;
  let ep = Engine.solve_epoch e in
  Alcotest.(check int) "empty again" 0 ep.Engine.n_flows;
  ignore (Engine.add_flow e ~utility:(pf ()) ~paths:[ [| 0 |] ]);
  let ep = Engine.solve_epoch e in
  Alcotest.(check bool) "no stale prices across an empty interval" false
    ep.Engine.warm

(* A fixed seeded churn stream, one epoch per event. The per-epoch
   iteration counts and the bits of the final rates are pinned: the
   stopping test decides how many xWI steps each epoch takes, so any
   drift in the KKT check or in the kernels it stops shows up here as a
   changed count or a changed bit. *)
let pinned_churn_iters =
  [ 55; 0; 55; 57; 20; 20; 20; 57; 57; 57; 20; 57; 57; 20; 57; 57; 57; 53;
    20; 49; 20; 53; 53; 19; 57; 53; 19; 57; 53; 20; 20; 53; 19; 19; 20; 53;
    125; 18; 20; 126 ]

let pinned_churn_rates_md5 = "50ebb1cc0d5789078e4688841ddab42c"

let test_engine_pinned_churn () =
  let sc = Scenario.leaf_spine ~seed:1 () in
  let e = Engine.create ~caps:sc.Scenario.caps () in
  let rng = Rng.create ~seed:1 in
  let live = ref [] in
  let iters =
    List.init 40 (fun _ ->
        (match Scenario.next_event rng sc ~live:(List.length !live) ~target:20 with
        | Scenario.Arrive p ->
          let gid =
            Engine.add_flow e ~utility:(pf ()) ~paths:[ sc.Scenario.path_pool.(p) ]
          in
          live := !live @ [ gid ]
        | Scenario.Depart j ->
          let gid = List.nth !live j in
          Engine.remove_flow e gid;
          live := List.filter (fun g -> not (Int.equal g gid)) !live);
        (Engine.solve_epoch e).Engine.iterations)
  in
  let bits =
    String.concat ","
      (Array.to_list
         (Array.map
            (fun r -> Printf.sprintf "%Lx" (Int64.bits_of_float r))
            (Engine.rates e)))
  in
  Alcotest.(check (list int)) "iterations per epoch" pinned_churn_iters iters;
  Alcotest.(check string) "final rate bits" pinned_churn_rates_md5
    (Digest.to_hex (Digest.string bits))

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_scenario_deterministic () =
  let a = Scenario.leaf_spine ~seed:5 () in
  let b = Scenario.leaf_spine ~seed:5 () in
  Alcotest.(check int) "pool size" 1000 (Array.length a.Scenario.path_pool);
  Alcotest.(check bool) "same seed, same caps" true
    (a.Scenario.caps = b.Scenario.caps);
  Alcotest.(check bool) "same seed, same pool" true
    (a.Scenario.path_pool = b.Scenario.path_pool);
  Array.iter
    (fun path ->
      Alcotest.(check bool) "paths non-empty and in range" true
        (Array.length path > 0
        && Array.for_all
             (fun l -> l >= 0 && l < Array.length a.Scenario.caps)
             path))
    a.Scenario.path_pool

let test_scenario_event_bounds () =
  let sc = Scenario.leaf_spine ~seed:5 () in
  let rng = Rng.create ~seed:6 in
  (match Scenario.next_event rng sc ~live:0 ~target:10 with
  | Scenario.Arrive i ->
    Alcotest.(check bool) "arrival index in pool" true
      (i >= 0 && i < Array.length sc.Scenario.path_pool)
  | Scenario.Depart _ -> Alcotest.fail "empty fabric must arrive");
  let live = 50 in
  for _ = 1 to 200 do
    match Scenario.next_event rng sc ~live ~target:50 with
    | Scenario.Arrive i ->
      Alcotest.(check bool) "arrive in pool" true
        (i >= 0 && i < Array.length sc.Scenario.path_pool)
    | Scenario.Depart j ->
      Alcotest.(check bool) "depart in live range" true (j >= 0 && j < live)
  done

(* ------------------------------------------------------------------ *)
(* Loopback socket session against a live server *)

let with_server f =
  let engine = Engine.create ~caps:[| 10.; 10. |] () in
  let server = Server.create ~engine (Server.Tcp 0) in
  let port =
    match Server.port server with
    | Some p -> p
    | None -> Alcotest.fail "TCP server must report its port"
  in
  let d = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join d)
    (fun () -> f port)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* One raw request line on a fresh connection, one reply line back: for
   commands [Protocol.encode_command] would never produce. *)
let raw_request port line =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let data = line ^ "\n" in
      ignore (Unix.write_substring fd data 0 (String.length data) : int);
      input_line (Unix.in_channel_of_descr fd))

let test_socket_session () =
  with_server (fun port ->
      let c = Client.connect_tcp port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (ok_or_fail "ping" (Client.request c Protocol.Ping));
          let fields =
            ok_or_fail "add"
              (Client.request c
                 (Protocol.Add
                    {
                      utility = Protocol.Pf { weight = 1. };
                      paths = [ [| 0 |] ];
                    }))
          in
          let gid =
            match Json.obj_int "gid" (Json.Obj fields) with
            | Some g -> g
            | None -> Alcotest.fail "add reply must carry a gid"
          in
          let fields =
            ok_or_fail "query" (Client.request c (Protocol.Query { gid }))
          in
          (match Json.obj_float "rate" (Json.Obj fields) with
          | Some r ->
            Alcotest.(check bool) "sole flow takes the link" true
              (Nf_util.Fcmp.rel_eq ~rel:1e-6 r 10.)
          | None -> Alcotest.fail "query reply must carry a rate");
          (* Errors come back as protocol errors, not closed connections. *)
          (match Client.request c (Protocol.Remove { gid = 9999 }) with
          | Ok _ -> Alcotest.fail "removing an unknown gid must fail"
          | Error _ -> ());
          (* 1e999 parses to infinity; an infinite link would never
             saturate, so the capacity must be refused. *)
          (match
             Protocol.decode_reply
               (raw_request port {|{"cmd":"set_cap","link":0,"cap":1e999}|})
           with
          | Ok _ -> Alcotest.fail "an infinite capacity must be refused"
          | Error _ -> ());
          let fields =
            ok_or_fail "stats" (Client.request c Protocol.Stats)
          in
          (match Json.obj_int "epochs" (Json.Obj fields) with
          | Some n -> Alcotest.(check bool) "epochs counted" true (n >= 1)
          | None -> Alcotest.fail "stats reply must carry epochs")))

let test_socket_subscribe_push () =
  with_server (fun port ->
      let sub = Client.connect_tcp port in
      let drv = Client.connect_tcp port in
      Fun.protect
        ~finally:(fun () ->
          Client.close sub;
          Client.close drv)
        (fun () ->
          ignore (ok_or_fail "subscribe" (Client.request sub Protocol.Subscribe));
          ignore
            (ok_or_fail "add"
               (Client.request drv
                  (Protocol.Add
                     {
                       utility = Protocol.Pf { weight = 1. };
                       paths = [ [| 1 |] ];
                     })));
          match Client.read_line sub with
          | Some line ->
            Alcotest.(check bool) "epoch push delivered" true
              (contains ~needle:"\"push\"" line
              && contains ~needle:"epoch" line)
          | None -> Alcotest.fail "subscriber saw EOF instead of a push"))

let test_socket_scrape_and_shutdown () =
  let engine = Engine.create ~caps:[| 10. |] () in
  let server = Server.create ~engine (Server.Tcp 0) in
  let port = Option.get (Server.port server) in
  let d = Domain.spawn (fun () -> Server.run server) in
  let c = Client.connect_tcp port in
  ignore
    (ok_or_fail "add"
       (Client.request c
          (Protocol.Add
             { utility = Protocol.Pf { weight = 1. }; paths = [ [| 0 |] ] })));
  let body = ok_or_fail "scrape" (Client.scrape_metrics port) in
  Alcotest.(check bool) "prometheus exposition has serve counters" true
    (contains ~needle:"nf_serve_epochs_total" body);
  (* A clean shutdown command stops the run loop; join must return. *)
  ignore (ok_or_fail "shutdown" (Client.request c Protocol.Shutdown));
  Domain.join d;
  Client.close c

let test_unix_socket_roundtrip () =
  let path = Filename.temp_file "nf_serve_test" ".sock" in
  Sys.remove path;
  let engine = Engine.create ~caps:[| 10. |] () in
  let server = Server.create ~engine (Server.Unix_sock path) in
  Alcotest.(check bool) "unix server has no TCP port" true
    (Server.port server = None);
  let d = Domain.spawn (fun () -> Server.run server) in
  let c = Client.connect_unix path in
  ignore (ok_or_fail "ping over unix socket" (Client.request c Protocol.Ping));
  ignore (ok_or_fail "shutdown" (Client.request c Protocol.Shutdown));
  Domain.join d;
  Client.close c;
  Alcotest.(check bool) "socket path unlinked on shutdown" false
    (Sys.file_exists path)

let test_drive_loopback () =
  (* A dedicated server sized for the scenario's fabric (a small leaf-spine,
     not with_server's two-link toy). *)
  let sc =
    Scenario.leaf_spine ~n_leaves:2 ~n_spines:2 ~servers_per_leaf:4 ~pool:50
      ~seed:3 ()
  in
  let engine = Engine.create ~caps:sc.Scenario.caps () in
  let server = Server.create ~engine (Server.Tcp 0) in
  let port = Option.get (Server.port server) in
  let d = Domain.spawn (fun () -> Server.run server) in
  let c = Client.connect_tcp port in
  let rng = Rng.create ~seed:4 in
  let report =
    match Client.drive c ~rng ~scenario:sc ~events:60 ~target:10 with
    | Ok r -> r
    | Error e -> Alcotest.failf "drive failed: %s" e
  in
  Alcotest.(check int) "all events driven" 60 report.Client.driven;
  Alcotest.(check int) "arrivals + departures = events" 60
    (report.Client.arrivals + report.Client.departures);
  let fields = ok_or_fail "stats" (Client.request c Protocol.Stats) in
  (match Json.obj_int "events" (Json.Obj fields) with
  | Some n -> Alcotest.(check bool) "server saw the events" true (n >= 60)
  | None -> Alcotest.fail "stats must carry events");
  ignore (ok_or_fail "shutdown" (Client.request c Protocol.Shutdown));
  Domain.join d;
  Client.close c

let () =
  Alcotest.run "nf_serve"
    [
      ( "sjson",
        [
          quick "parse basics" test_sjson_parse_basics;
          quick "parse errors" test_sjson_parse_errors;
          quick "print round-trip" test_sjson_print_roundtrip;
          qcheck prop_sjson_float_roundtrip;
          qcheck prop_sjson_doc_roundtrip;
          qcheck prop_sjson_parser_fails_cleanly;
          quick "malformed corpus" test_sjson_malformed_corpus;
          quick "accessors" test_sjson_accessors;
        ] );
      ( "protocol",
        [
          quick "command round-trip" test_protocol_roundtrip;
          quick "decode errors" test_protocol_decode_errors;
          quick "replies" test_protocol_replies;
        ] );
      ( "engine",
        [
          quick "epoch lifecycle, warm after cold" test_engine_epochs;
          quick "capacity change" test_engine_set_cap;
          quick "emptied fabric restarts cold" test_engine_emptied_restarts_cold;
          quick "pinned seeded churn stream" test_engine_pinned_churn;
        ] );
      ( "scenario",
        [
          quick "deterministic by seed" test_scenario_deterministic;
          quick "event bounds" test_scenario_event_bounds;
        ] );
      ( "socket",
        [
          quick "request/reply session" test_socket_session;
          quick "subscriber epoch push" test_socket_subscribe_push;
          quick "metrics scrape + shutdown" test_socket_scrape_and_shutdown;
          quick "unix-domain socket" test_unix_socket_roundtrip;
          quick "churn drive over loopback" test_drive_loopback;
        ] );
    ]
