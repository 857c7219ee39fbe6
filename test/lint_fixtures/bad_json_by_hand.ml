(* Fixture: JSON spelled out in format strings. *)

let pair k v = Printf.sprintf "{\"%s\": %d}" k v

let point x y = Format.asprintf {|{"x":%g,"y":%g}|} x y

let write oc name = Printf.fprintf oc "{\"name\":\"%s\"}\n" name
