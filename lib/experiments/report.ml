module Json = Nf_util.Json

type cell = Text of string | Int of int | Float of float

type t = {
  title : string;
  columns : string list;
  rows : cell list list;
  notes : string list;
}

let make ~title ~columns ?(notes = []) rows =
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Report.make: row %d has %d cells, expected %d" i
             (List.length row) width))
    rows;
  { title; columns; rows; notes }

let text s = Text s

let int i = Int i

let float f = Float f

let float_us s = Float (s *. 1e6)

let cell_equal a b =
  match (a, b) with
  | Text a, Text b -> String.equal a b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.compare a b = 0  (* nan = nan *)
  | _ -> false

let equal a b =
  String.equal a.title b.title
  && List.equal String.equal a.columns b.columns
  && List.equal (List.equal cell_equal) a.rows b.rows
  && List.equal String.equal a.notes b.notes

(* ------------------------------------------------------------------ *)
(* Text *)

let cell_text = function
  | Text s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f

let pp ppf t =
  Format.fprintf ppf "@[<v>%s@," t.title;
  if t.columns <> [] then begin
    let cells = List.map (List.map cell_text) t.rows in
    let widths =
      List.mapi
        (fun c name ->
          List.fold_left
            (fun w row -> Stdlib.max w (String.length (List.nth row c)))
            (String.length name) cells)
        t.columns
    in
    let pad align w s =
      let fill = String.make (Stdlib.max 0 (w - String.length s)) ' ' in
      match align with `Left -> s ^ fill | `Right -> fill ^ s
    in
    Format.fprintf ppf "  %s@,"
      (String.concat "  " (List.map2 (pad `Left) widths t.columns));
    List.iter2
      (fun row texts ->
        let padded =
          List.mapi
            (fun c s ->
              let align =
                match List.nth row c with Text _ -> `Left | Int _ | Float _ -> `Right
              in
              pad align (List.nth widths c) s)
            texts
        in
        Format.fprintf ppf "  %s@," (String.concat "  " padded))
      t.rows cells
  end;
  List.iter (fun n -> Format.fprintf ppf "  [%s]@," n) t.notes;
  Format.fprintf ppf "@]"

let to_text t = Format.asprintf "%a" pp t

(* ------------------------------------------------------------------ *)
(* JSON *)

let cell_json = function
  | Text s -> Json.Str s
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f

let json t =
  let strings l = Json.List (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [
      ("title", Json.Str t.title);
      ("columns", strings t.columns);
      ("rows", Json.List (List.map (fun r -> Json.List (List.map cell_json r)) t.rows));
      ("notes", strings t.notes);
    ]

let to_json t = Json.to_string (json t)

(* ------------------------------------------------------------------ *)
(* CSV *)

let csv_escape s =
  if String.exists (function ',' | '"' | '\n' -> true | _ -> false) s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let cell_csv = function
  | Text s -> csv_escape s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.12g" f

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (String.concat "," (List.map csv_escape t.columns));
  Buffer.add_char b '\n';
  List.iter
    (fun row ->
      Buffer.add_string b (String.concat "," (List.map cell_csv row));
      Buffer.add_char b '\n')
    t.rows;
  List.iter (fun n -> Buffer.add_string b ("# " ^ n ^ "\n")) t.notes;
  Buffer.contents b
