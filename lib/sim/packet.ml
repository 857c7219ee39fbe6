type kind = Data | Ack

type floats = {
  sent_at : float;
  mutable virtual_packet_len : float;
  mutable path_price : float;
  mutable normalized_residual : float;
  mutable rcp_sum : float;
  mutable priority : float;
  mutable ack_ipt : float;
  mutable ack_path_price : float;
  mutable ack_rcp_sum : float;
}

type t = {
  flow : int;
  seq : int;
  size : int;
  kind : kind;
  mutable hop : int;
  path : int array;
  mutable path_len : int;
  mutable ecn : bool;
  mutable ack_path_len : int;
  mutable ack_ecn : bool;
  fl : floats;
}

let data_size = 1500

let ack_size = 40

let make_data ~flow ~seq ~size ~path ~now =
  {
    flow;
    seq;
    size;
    kind = Data;
    hop = 0;
    path;
    path_len = 0;
    ecn = false;
    ack_path_len = 0;
    ack_ecn = false;
    fl =
      {
        sent_at = now;
        virtual_packet_len = float_of_int size;
        path_price = 0.;
        normalized_residual = 0.;
        rcp_sum = 0.;
        priority = infinity;
        ack_ipt = Float.nan;
        ack_path_price = 0.;
        ack_rcp_sum = 0.;
      };
  }

let make_ack ~data ~path ~now =
  {
    flow = data.flow;
    seq = data.seq;
    size = ack_size;
    kind = Ack;
    hop = 0;
    path;
    path_len = 0;
    ecn = false;
    ack_path_len = data.path_len;
    ack_ecn = data.ecn;
    fl =
      {
        sent_at = now;
        (* Control packets: virtualPacketLen = 0, residual ignored (§5). *)
        virtual_packet_len = 0.;
        path_price = 0.;
        normalized_residual = Float.nan;
        rcp_sum = 0.;
        priority = 0.;
        ack_ipt = Float.nan;
        ack_path_price = data.fl.path_price;
        ack_rcp_sum = data.fl.rcp_sum;
      };
  }

let is_data p = p.kind = Data
