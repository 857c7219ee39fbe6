(* Fixture: JSON built as a value; format strings that hold no key. *)

module Json = Nf_util.Json

let pair k v = Json.to_string (Json.Obj [ (k, Json.Num (float_of_int v)) ])

let label name = Printf.sprintf "%s: %d" name 3

let quoted s = Printf.sprintf "%S" s

let key b k =
  Buffer.add_string b "\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":"
