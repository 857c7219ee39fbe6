(* Index of .cmt/.cmti artifacts: maps compiled source paths to the
   artifact holding their typedtree. The per-file typed stage is keyed
   on the implementation entries; a file with no cmt entry simply has
   no typed findings (or a [cmt-missing] finding when the driver runs
   with [require_cmt]). The whole-program [unused-export] pass reads
   every entry, interfaces included.

   Scanning is deterministic: directory entries are sorted before
   descending and ties in suffix matching resolve to the
   lexicographically first source path, so two runs produce identical
   stage-2 coverage. *)

type entry = { source : string; cmt_path : string }

type t = {
  entries : entry list;  (* implementations, sorted by source *)
  interfaces : entry list;  (* interfaces, sorted by source *)
  unreadable : (string * string) list;  (* artifact path, error *)
}

let is_artifact path =
  Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"

(* Unlike the source walk, descend into dot-directories: dune hides the
   .objs/.eobjs artifact dirs behind a leading dot. *)
let rec walk acc path =
  match Sys.is_directory path with
  | true ->
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left (fun acc name -> walk acc (Filename.concat path name)) acc
  | false -> if is_artifact path then path :: acc else acc
  | exception Sys_error _ -> acc

(* Only the errors reading an artifact can raise are caught: a wrong
   magic number or compiler version, a truncated file, an I/O error. *)
let read path =
  match Cmt_format.read_cmt path with
  | infos -> Ok infos
  | exception
      (( Cmt_format.Error _ | Cmi_format.Error _ | Sys_error _ | End_of_file
       | Failure _ ) as exn) ->
    Error (Printf.sprintf "%s: %s" path (Printexc.to_string exn))

let index ~roots =
  let paths =
    List.fold_left
      (fun acc root -> if Sys.file_exists root then walk acc root else acc)
      [] roots
    |> List.sort_uniq String.compare
  in
  let impls, intfs, unreadable =
    List.fold_left
      (fun (impls, intfs, bad) cmt_path ->
        match read cmt_path with
        | Error msg -> (impls, intfs, (cmt_path, msg) :: bad)
        | Ok { Cmt_format.cmt_sourcefile = Some src; cmt_annots; _ } -> (
          let e = { source = Config.normalize src; cmt_path } in
          match cmt_annots with
          | Implementation _ -> (e :: impls, intfs, bad)
          | Interface _ -> (impls, e :: intfs, bad)
          | _ -> (impls, intfs, bad))
        | Ok _ -> (impls, intfs, bad))
      ([], [], []) paths
  in
  let by_source l = List.sort (fun a b -> String.compare a.source b.source) l in
  {
    entries = by_source impls;
    interfaces = by_source intfs;
    unreadable = List.rev unreadable;
  }

let size t = List.length t.entries

let unreadable t = t.unreadable

let artifacts t =
  List.map (fun e -> e.cmt_path) (t.entries @ t.interfaces)
  |> List.sort String.compare

(* [a] ends with [b] at a '/' boundary (or equals it). *)
let suffix_at_boundary ~full ~suffix =
  full = suffix
  || String.length full > String.length suffix + 1
     && String.sub full
          (String.length full - String.length suffix - 1)
          (String.length suffix + 1)
        = "/" ^ suffix

(* The lint path and the compiled path may be rooted differently (the
   tests lint "lint_fixtures_typed/x.ml" while dune compiled
   "test/lint_fixtures_typed/x.ml"); accept a match when either is a
   '/'-boundary suffix of the other. Exact matches win. *)
let find_in entries path =
  let path = Config.normalize path in
  let exact = List.find_opt (fun e -> e.source = path) entries in
  match exact with
  | Some e -> Some e.cmt_path
  | None ->
    List.find_opt
      (fun e ->
        suffix_at_boundary ~full:e.source ~suffix:path
        || suffix_at_boundary ~full:path ~suffix:e.source)
      entries
    |> Option.map (fun e -> e.cmt_path)

let find t path = find_in t.entries path

let find_interface t path = find_in t.interfaces path

let load cmt_path =
  match read cmt_path with
  | Ok { Cmt_format.cmt_annots = Implementation str; _ } -> Ok str
  | Ok _ -> Error (Printf.sprintf "%s: not an implementation cmt" cmt_path)
  | Error _ as e -> e
