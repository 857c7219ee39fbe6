type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

(* ------------------------------------------------------------------ *)
(* Parser: strict recursive descent over the input string. Serve
   messages are one short line each and reports are a few hundred KB, so
   there is no need for streaming. Errors carry a byte offset, turned
   into a line and column only on the error path. *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when Char.equal x ch -> advance c
  | _ -> fail c.pos (Printf.sprintf "expected '%c'" ch)

let expect_lit c lit value =
  let n = String.length lit in
  if c.pos + n <= String.length c.src && String.equal (String.sub c.src c.pos n) lit
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" lit)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c.pos "bad \\u escape"

let utf8_of_code b code =
  (* Encode one Unicode scalar value; strings are UTF-8. *)
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The four hex digits of a [\u] escape, the cursor just past the [u]. *)
let hex4 c =
  if c.pos + 4 > String.length c.src then fail c.pos "bad \\u escape";
  let code = ref 0 in
  for _ = 1 to 4 do
    code := (!code * 16) + hex_digit c c.src.[c.pos];
    advance c
  done;
  !code

(* One [\u] escape: a BMP scalar, or a high surrogate that must be
   followed by a [\u]-escaped low one, the pair naming one scalar above
   U+FFFF. A lone surrogate is no scalar value, so it is an error. *)
let unicode_escape c b =
  let start = c.pos - 2 in
  let code = hex4 c in
  if code >= 0xDC00 && code <= 0xDFFF then fail start "lone low surrogate"
  else if code >= 0xD800 && code <= 0xDBFF then begin
    if
      c.pos + 2 <= String.length c.src
      && Char.equal c.src.[c.pos] '\\'
      && Char.equal c.src.[c.pos + 1] 'u'
    then c.pos <- c.pos + 2
    else fail start "lone high surrogate";
    let low = hex4 c in
    if low < 0xDC00 || low > 0xDFFF then fail start "lone high surrogate";
    utf8_of_code b (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
  end
  else utf8_of_code b code

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | None -> fail c.pos "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> unicode_escape c b
        | _ -> fail (c.pos - 1) "bad escape character"));
      loop ()
    | Some ch when Char.code ch < 0x20 -> fail c.pos "control character in string"
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance c
    | _ -> continue := false
  done;
  let span = String.sub c.src start (c.pos - start) in
  match float_of_string_opt span with
  | Some v -> Num v
  | None -> fail start (Printf.sprintf "bad number %S" span)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    advance c;
    skip_ws c;
    (match peek c with
    | Some '}' ->
      advance c;
      Obj []
    | _ ->
      let rec fields acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> fail c.pos "expected ',' or '}'"
      in
      Obj (fields []))
  | Some '[' ->
    advance c;
    skip_ws c;
    (match peek c with
    | Some ']' ->
      advance c;
      List []
    | _ ->
      let rec elems acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elems (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c.pos "expected ',' or ']'"
      in
      List (elems []))
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected character '%c'" ch)

let position src pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to Stdlib.min pos (String.length src) - 1 do
    if Char.equal src.[i] '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

let parse src =
  let c = { src; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos < String.length src then fail c.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
    let line, col = position src pos in
    Error (Printf.sprintf "line %d, column %d: %s" line col msg)

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
    match parse contents with
    | Ok v -> Ok v
    | Error msg -> Error (path ^ ": " ^ msg))
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Printer *)

let write_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"'

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"  (* JSON has no nan or infinity *)

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num v -> Buffer.add_string b (number v)
  | Str s -> write_string b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write_string b k;
        Buffer.add_char b ':';
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 64 in
  write b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v
    when Float.is_integer v
         && v >= Float.of_int min_int
         && v <= Float.of_int max_int ->
    Some (int_of_float v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function List vs -> Some vs | _ -> None

let bind o f = match o with Some v -> f v | None -> None

let obj_int key v = bind (member key v) to_int

let obj_float key v = bind (member key v) to_float

let obj_str key v = bind (member key v) to_str

let obj_list key v = bind (member key v) to_list
