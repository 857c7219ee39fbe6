(* Typed hot-alloc bad cases for the stdlib hashtable. Expected
   findings, one per operation: Hashtbl.find_opt in [lookup],
   Hashtbl.mem and Hashtbl.add in [insert], Hashtbl.replace in [touch],
   Hashtbl.find and Hashtbl.remove in [take]. *)

let[@nf.hot] lookup (tbl : (int, float) Hashtbl.t) id =
  match Hashtbl.find_opt tbl id with
  | Some x -> x
  | None -> 0.

let[@nf.hot] insert (tbl : (int, unit) Hashtbl.t) id =
  if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id ()

let[@nf.hot] touch (tbl : (int, unit) Hashtbl.t) id = Hashtbl.replace tbl id ()

let[@nf.hot] take (tbl : (int, int) Hashtbl.t) id =
  let v = Hashtbl.find tbl id in
  Hashtbl.remove tbl id;
  v
