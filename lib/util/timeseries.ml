type t = {
  mutable times : float array;
  mutable values : float array;
  mutable size : int;
}

let create () = { times = [||]; values = [||]; size = 0 }

let grow t =
  let cap = Array.length t.times in
  if t.size >= cap then begin
    let new_cap = if cap = 0 then 64 else 2 * cap in
    let times = Array.make new_cap 0. and values = Array.make new_cap 0. in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.values 0 values 0 t.size;
    t.times <- times;
    t.values <- values
  end

let add t ~time v =
  if t.size > 0 && time < t.times.(t.size - 1) then
    invalid_arg "Timeseries.add: samples must be time-ordered";
  grow t;
  t.times.(t.size) <- time;
  t.values.(t.size) <- v;
  t.size <- t.size + 1

let length t = t.size

let last t =
  if t.size = 0 then None else Some (t.times.(t.size - 1), t.values.(t.size - 1))

let to_list t =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) ((t.times.(i), t.values.(i)) :: acc)
  in
  build (t.size - 1) []

(* Largest index with times.(i) <= time, or -1. *)
let index_at t time =
  if t.size = 0 || time < t.times.(0) then -1
  else begin
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if t.times.(mid) <= time then search mid hi else search lo mid
      end
    in
    if time >= t.times.(t.size - 1) then t.size - 1 else search 0 (t.size - 1)
  end

let value_at t time =
  let i = index_at t time in
  if i < 0 then None else Some t.values.(i)

let resample t ~t0 ~t1 ~dt =
  if dt <= 0. then invalid_arg "Timeseries.resample: dt must be positive";
  let rec collect time acc =
    if time > t1 +. (dt /. 2.) then List.rev acc
    else begin
      match value_at t time with
      | None -> collect (time +. dt) acc
      | Some v -> collect (time +. dt) ((time, v) :: acc)
    end
  in
  collect t0 []
