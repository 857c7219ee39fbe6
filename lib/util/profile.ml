(* Per-category wall-clock accounting, keyed by interned integer handles
   so the event loop indexes two flat arrays per recorded handler instead
   of hashing a string. Interning is mutex-protected (module-init code in
   worker domains may intern); recording itself is only reached with
   profiling enabled, which the CLI restricts to single-domain runs. *)

type cat = int

let intern_mutex = Mutex.create ()

let names = ref (Array.make 16 "")

let calls = ref (Array.make 16 0)

let seconds = ref (Array.make 16 0.)

let n_cats = ref 0

let by_name : (string, int) Hashtbl.t = Hashtbl.create 16

let intern name =
  Mutex.lock intern_mutex;
  let id =
    match Hashtbl.find_opt by_name name with
    | Some id -> id
    | None ->
      let id = !n_cats in
      let cap = Array.length !names in
      if id = cap then begin
        let grow make src =
          let dst = make (2 * cap) in
          Array.blit !src 0 dst 0 cap;
          src := dst
        in
        grow (fun n -> Array.make n "") names;
        grow (fun n -> Array.make n 0) calls;
        grow (fun n -> Array.make n 0.) seconds
      end;
      !names.(id) <- name;
      n_cats := id + 1;
      Hashtbl.add by_name name id;
      id
  in
  Mutex.unlock intern_mutex;
  id

let cat_name id = !names.(id)

let enabled_flag = ref false

let enabled () = !enabled_flag

let set_enabled b = enabled_flag := b

let reset () =
  Array.fill !calls 0 !n_cats 0;
  Array.fill !seconds 0 !n_cats 0.

let now () = Unix.gettimeofday ()

let record_cat id dt =
  !calls.(id) <- !calls.(id) + 1;
  !seconds.(id) <- !seconds.(id) +. dt

let time name f =
  if not !enabled_flag then f ()
  else begin
    let id = intern name in
    if Gcstats.enabled () then begin
      let t0 = now () in
      let b0 = Gcstats.bytes () in
      Fun.protect
        ~finally:(fun () ->
          Gcstats.record id (Gcstats.bytes () -. b0);
          record_cat id (now () -. t0))
        f
    end
    else begin
      let t0 = now () in
      Fun.protect ~finally:(fun () -> record_cat id (now () -. t0)) f
    end
  end

let categories () =
  let rows = ref [] in
  for id = !n_cats - 1 downto 0 do
    if !calls.(id) > 0 then
      rows := (!names.(id), !calls.(id), !seconds.(id)) :: !rows
  done;
  List.sort (fun (_, _, a) (_, _, b) -> compare b a) !rows

let pp_table ppf () =
  match categories () with
  | [] -> Format.fprintf ppf "(no events profiled)"
  | rows ->
    let total = List.fold_left (fun acc (_, _, s) -> acc +. s) 0. rows in
    Format.fprintf ppf "@[<v>%-24s %12s %12s %7s@," "category" "calls"
      "seconds" "share";
    List.iter
      (fun (cat, calls, seconds) ->
        Format.fprintf ppf "%-24s %12d %12.4f %6.1f%%@," cat calls seconds
          (100. *. seconds /. Float.max total 1e-12))
      rows;
    Format.fprintf ppf "%-24s %12s %12.4f %6.1f%%@]" "total" "" total 100.
