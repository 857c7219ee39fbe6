type flow_env = {
  env_sim : Nf_engine.Sim.t;
  env_cfg : Config.t;
  env_size : float;
  env_d0 : float;
  env_line_rate : float;
  env_path_hops : int;
  env_remaining : unit -> float;
}

type cell = { mutable value : float }

let cell value = { value }

type discipline =
  | Windowed of cell
  | Paced of { rate : cell; cap : float }

type flow_handle = {
  fh_discipline : discipline;
  fh_on_send : Packet.t -> unit;
  fh_on_ack : Packet.t -> unit;
  fh_rto : float;
}

type link_handle = {
  lh_qdisc : Queue_disc.t;
  lh_engine : Price_engine.t;
}

module type PROTOCOL = sig
  val name : string

  val description : string

  val needs_utility : bool

  val update_interval : Config.t -> float option

  val make_link :
    Config.t -> pool:Packet.pool -> capacity:float -> link_handle

  val make_flow : flow_env -> utility:Nf_num.Utility.t option -> flow_handle
end

type t = (module PROTOCOL)

let name (module P : PROTOCOL) = P.name

let description (module P : PROTOCOL) = P.description

let needs_utility (module P : PROTOCOL) = P.needs_utility

let default_rto ~d0 = Float.max (30. *. d0) 1e-3

let registry : (string, t) Hashtbl.t = Hashtbl.create 8

let register ((module P : PROTOCOL) as p) =
  if Hashtbl.mem registry P.name then
    invalid_arg (Printf.sprintf "Protocol.register: duplicate protocol %S" P.name);
  Hashtbl.replace registry P.name p

let find name = Hashtbl.find_opt registry name

let names () =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])
