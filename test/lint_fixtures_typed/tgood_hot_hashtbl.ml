(* Typed hot-alloc good cases for the hashtable rule: a hot lookup in a
   table indexed by id, and the stdlib Hashtbl used outside any hot
   body. Zero findings expected. *)

let[@nf.hot] lookup (table : float array) id =
  if id >= 0 && id < Array.length table then Array.unsafe_get table id else 0.

let index_of_names names =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace tbl name i) names;
  fun name -> Hashtbl.find_opt tbl name
