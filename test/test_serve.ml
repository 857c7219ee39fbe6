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
  Alcotest.(check bool) "lone low surrogate" true (bad {|"\ude00x"|});
  List.iter
    (fun lit -> Alcotest.(check bool) ("number " ^ lit) true (bad lit))
    [ "01"; "-01"; "00"; "1."; "-.5"; "1.e5" ]

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

(* RFC 8259's number grammar as a table-driven automaton, written apart
   from the parser's own check: [-] 1, a leading [0] 2, more integer
   digits 3, [.] 4, fraction digits 5, [e]/[E] 6, the exponent's sign 7,
   its digits 8; a literal is a number iff it ends in 2, 3, 5 or 8. *)
let rfc8259_number lit =
  let next state ch =
    match (state, ch) with
    | 0, '-' -> 1
    | (0 | 1), '0' -> 2
    | (0 | 1), '1' .. '9' -> 3
    | 3, '0' .. '9' -> 3
    | (2 | 3), '.' -> 4
    | (4 | 5), '0' .. '9' -> 5
    | (2 | 3 | 5), ('e' | 'E') -> 6
    | 6, ('+' | '-') -> 7
    | (6 | 7 | 8), '0' .. '9' -> 8
    | _ -> -1
  in
  List.mem
    (String.fold_left (fun st ch -> if st < 0 then st else next st ch) 0 lit)
    [ 2; 3; 5; 8 ]

(* The parser against that grammar and [float_of_string], the reader of
   every number it accepts: a literal the grammar accepts parses to
   [float_of_string]'s bits, and a literal parses iff the grammar
   accepts it. The literals straddle the integer
   fast path's edges (up to 14 digits it sums an [int]; from 15 on, or
   with a fraction or an exponent, the whole run goes to
   [float_of_string]), and near-misses of the grammar ([01], [1.],
   [-.5], [1.e5], random runs of number bytes) must be errors. *)
let gen_number_literal =
  let digits lo hi =
    QCheck.Gen.(
      map2
        (fun first rest -> String.make 1 first ^ rest)
        (char_range '1' '9')
        (string_size ~gen:(char_range '0' '9') (int_range (lo - 1) (hi - 1))))
  in
  let signed g = QCheck.Gen.(map2 (fun neg d -> if neg then "-" ^ d else d) bool g) in
  QCheck.Gen.(
    oneof
      [
        map string_of_int (int_range (-1_000_000_000_000_000) 1_000_000_000_000_000);
        signed (digits 1 14);
        signed (digits 15 17);
        signed (map (fun d -> "0" ^ d) (digits 1 5));
        map (Printf.sprintf "%.17g") (float_range (-1e16) 1e16);
        string_size
          ~gen:(oneofl [ '0'; '1'; '9'; '-'; '+'; '.'; 'e'; 'E' ])
          (int_range 1 8);
        oneofl
          [ "0"; "-0"; "00"; "-00"; "007"; "01"; "-01"; "1."; "-.5"; ".5"; "1.e5";
            "0.5"; "-0.0e-0"; "0e0"; "1e5"; "1E5"; "-1e5"; "1.0"; "-1.0"; "1e+2";
            "2.5e-3"; "1e+"; "+1"; "99999999999999"; "-99999999999999";
            "100000000000000"; "999999999999999"; "12345678901234567"; "-"; "1e";
            "1-2" ];
      ])

let number_literal = QCheck.make ~print:Fun.id gen_number_literal

let prop_sjson_number_bits =
  QCheck.Test.make
    ~name:"a number parses to float_of_string's bits" ~count:2000
    number_literal
    (fun lit ->
      (not (rfc8259_number lit))
      ||
      match Json.parse lit with
      | Ok (Json.Num v) ->
        Int64.equal (Int64.bits_of_float v)
          (Int64.bits_of_float (float_of_string lit))
      | Ok _ | Error _ -> false)

let prop_sjson_number_matches_grammar =
  QCheck.Test.make
    ~name:"a number parses iff RFC 8259 spells it" ~count:2000
    number_literal
    (fun lit ->
      match Json.parse lit with
      | Ok (Json.Num _) -> rfc8259_number lit
      | Ok _ -> false
      | Error _ -> not (rfc8259_number lit))

let prop_sjson_integer_prints_as_printf =
  QCheck.Test.make ~name:"an integral number prints as %.0f" ~count:2000
    QCheck.(
      make ~print:(Printf.sprintf "%.17g")
        Gen.(
          oneof
            [
              map float_of_int (int_range (-999_999_999_999_999) 999_999_999_999_999);
              map float_of_int (int_range (-1000) 1000);
              oneofl [ 0.; -0.; 999_999_999_999_999.; -999_999_999_999_999.; 1e14 ];
            ]))
    (fun v -> String.equal (Json.to_string (Json.Num v)) (Printf.sprintf "%.0f" v))

(* Strings with an escape or a bad byte after a plain prefix leave the
   one-[String.sub] path; they decode, and fail, as before. *)
let test_sjson_string_paths () =
  let str s = match Json.parse s with Ok (Json.Str v) -> Some v | _ -> None in
  Alcotest.(check (option string)) "plain" (Some "plain") (str {|"plain"|});
  Alcotest.(check (option string)) "empty" (Some "") (str {|""|});
  Alcotest.(check (option string)) "escape after a prefix" (Some "ab\"c\\d")
    (str {|"ab\"c\\d"|});
  Alcotest.(check (option string)) "escape first" (Some "\ttab") (str {|"\ttab"|});
  Alcotest.(check (option string)) "escape last" (Some "nl\n") (str {|"nl\n"|});
  Alcotest.(check (option string)) "unicode after a prefix" (Some "x\xc3\xa9y")
    (str {|"x\u00e9y"|});
  Alcotest.(check (option string)) "raw UTF-8 stays plain" (Some "\xc3\xa9")
    (str "\"\xc3\xa9\"");
  let err s = match Json.parse s with Ok _ -> "accepted" | Error e -> e in
  Alcotest.(check string) "unterminated after a prefix"
    "line 1, column 5: unterminated string" (err {|"abc|});
  Alcotest.(check string) "unterminated after an escape"
    "line 1, column 7: unterminated string" (err {|"ab\nc|});
  Alcotest.(check string) "control byte after a prefix"
    "line 1, column 3: control character in string" (err "\"a\001b\"");
  Alcotest.(check string) "unterminated escape" "line 1, column 5: unterminated escape"
    (err {|"ab\|});
  Alcotest.(check string) "end of input" "line 1, column 2: unexpected end of input"
    (err "[");
  Alcotest.(check string) "a NUL byte is a character, not the end"
    "line 1, column 2: unexpected character '\000'" (err "[\000]")

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
      (Nf_testkit.Approx.rel_eq ~rel:1e-6 ra 5.
      && Nf_testkit.Approx.rel_eq ~rel:1e-6 rb 5.)
  | _ -> Alcotest.fail "live gids must have rates");
  (* Departure: reads resolve pending events implicitly. *)
  Engine.remove_flow e a;
  Alcotest.(check bool) "departed gid has no rate" true
    (Engine.group_rate e a = None);
  (match Engine.group_rate e b with
  | Some rb ->
    Alcotest.(check bool) "survivor takes the link" true
      (Nf_testkit.Approx.rel_eq ~rel:1e-6 rb 10.)
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
      (Nf_testkit.Approx.rel_eq ~rel:1e-6 r 20.)
  | None -> Alcotest.fail "flow lost its rate");
  Alcotest.(check int) "capacity change solved warm" 1
    (Engine.stats e).Engine.warm_epochs

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
   changed count or a changed bit. Every epoch takes 0 iterations: the
   cold ones (the first, and the first after the fabric empties) are
   certified by the Newton polish of zero prices ([Xwi_core.init]; from
   the seed they took 55 each), and every warm one by its
   Newton-polished start ([Xwi_core.resize]). The final rates are whole shares of 10 G links, which
   the water-fill sets exactly, so their bits do not depend on the start
   the last epoch took; the final prices' bits are pinned beside them,
   and those do: a drift in the warm start or in the last epoch's solve
   changes them (the polish's proportional step moved two of them by
   under 2e-16, relative). *)
let pinned_churn_iters = List.init 40 (fun _ -> 0)

let pinned_churn_rates_md5 = "d63d9452e66b6c98ce37e6b33013b88a"

let pinned_churn_prices_md5 = "be6334e14dd5d7bd28cdaef6a886598a"

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
  let md5_of_bits a =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (Array.to_list
               (Array.map (fun r -> Printf.sprintf "%Lx" (Int64.bits_of_float r)) a))))
  in
  Alcotest.(check (list int)) "iterations per epoch" pinned_churn_iters iters;
  Alcotest.(check string) "final rate bits" pinned_churn_rates_md5
    (md5_of_bits (Engine.rates e));
  Alcotest.(check string) "final price bits" pinned_churn_prices_md5
    (md5_of_bits (Engine.prices e))

(* nfbench's serve_churn stream without the wire codec: the seeded
   leaf-spine, its arrival/departure draws (the client's generator is
   seeded with [seed lxor 0x5eed], departures swap the last live gid
   into the departed one's place), a ramp to [target] flows, the cold
   epoch, then one epoch per event. Returns the cold epoch's iterations,
   the warm epochs and how many of them took an xWI iteration or kept
   the carried start. *)
let serve_churn_misses ~seed ~target ~events =
  let sc = Scenario.leaf_spine ~seed () in
  let rng = Rng.create ~seed:(seed lxor 0x5eed) in
  let e = Engine.create ~caps:sc.Scenario.caps () in
  let live = Array.make (target + events) 0 and n_live = ref 0 in
  let event () =
    match Scenario.next_event rng sc ~live:!n_live ~target with
    | Scenario.Arrive p ->
      live.(!n_live) <- Engine.add_flow e ~utility:(pf ()) ~paths:[ sc.Scenario.path_pool.(p) ];
      incr n_live
    | Scenario.Depart j ->
      let gid = live.(j) in
      live.(j) <- live.(!n_live - 1);
      decr n_live;
      Engine.remove_flow e gid
  in
  while !n_live < target do
    event ()
  done;
  let cold = Engine.solve_epoch e in
  let carried = Nf_util.Metrics.counter Nf_util.Metrics.global "nf_xwi_carried_starts_total" in
  let warm = ref 0 and iterated = ref 0 and kept = ref 0 in
  for _ = 1 to events do
    event ();
    let before = Nf_util.Metrics.counter_value carried in
    let ep = Engine.solve_epoch e in
    if ep.Engine.warm then begin
      incr warm;
      if ep.Engine.iterations > 0 then incr iterated;
      if Nf_util.Metrics.counter_value carried > before then incr kept
    end
  done;
  (cold.Engine.iterations, !warm, !iterated, !kept)

(* On seeds 7 and 8 one epoch each once ran out of the polish's budget
   (then 8 Newton solves) and fell back to 1,155-2,032 xWI iterations
   from the carried start. Every warm epoch of both streams is polished
   and certified at iteration 0, and so is the cold epoch, by the polish
   of zero prices. *)
let test_engine_serve_churn_polished () =
  List.iter
    (fun seed ->
      let cold, warm, iterated, kept = serve_churn_misses ~seed ~target:100 ~events:3000 in
      let what = Printf.sprintf "seed %d" seed in
      Alcotest.(check int) (what ^ ": cold epoch iterations") 0 cold;
      Alcotest.(check int) (what ^ ": warm epochs") 3000 warm;
      Alcotest.(check int) (what ^ ": carried starts") 0 kept;
      Alcotest.(check int) (what ^ ": epochs past iteration 0") 0 iterated)
    [ 7; 8 ]

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
              (Nf_testkit.Approx.rel_eq ~rel:1e-6 r 10.)
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

let test_socket_line_limit () =
  (* A request line over the server's 1 MiB limit, sent without a
     newline, gets an error reply and then EOF, and the server goes on
     serving other clients. The socket deadlines turn a server that
     buffers the line forever into a failure rather than a hang. *)
  with_server (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
          let line = String.make ((1 lsl 20) + 1) 'x' in
          let off = ref 0 in
          while !off < String.length line do
            off :=
              !off
              + Unix.write_substring fd line !off (String.length line - !off)
          done;
          let reply = Buffer.create 128 and chunk = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes reply chunk 0 n;
              drain ()
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Alcotest.fail "no reply and no EOF within the deadline"
          in
          drain ();
          match Protocol.decode_reply (String.trim (Buffer.contents reply)) with
          | Ok _ -> Alcotest.fail "an over-limit line must get an error reply"
          | Error reason ->
            Alcotest.(check bool) "error names the limit" true
              (contains ~needle:"exceeds" reason));
      let c = Client.connect_tcp port in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore
            (ok_or_fail "ping after the rejected client"
               (Client.request c Protocol.Ping))))

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
          qcheck prop_sjson_number_bits;
          qcheck prop_sjson_number_matches_grammar;
          qcheck prop_sjson_integer_prints_as_printf;
          quick "string fast and slow paths" test_sjson_string_paths;
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
          quick "serve_churn seeds 7 and 8: every warm epoch polished"
            test_engine_serve_churn_polished;
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
          quick "over-limit line rejected and closed" test_socket_line_limit;
          quick "unix-domain socket" test_unix_socket_roundtrip;
          quick "churn drive over loopback" test_drive_loopback;
        ] );
    ]
