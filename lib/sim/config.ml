type swift = {
  ewma_time : float;
  dt_slack : float;
  init_burst : int;
  weight_quant_base : float option;
  srpt_eps : float;
}

type dgd = Nf_num.Price_law.dgd

type rcp = Nf_num.Price_law.rcp

type dctcp = {
  dctcp_mark_threshold : int;
  dctcp_gain : float;
}

type pfabric = {
  pfabric_buffer_bytes : int;
  pfabric_rto : float;
}

type t = {
  buffer_bytes : int;
  rate_measure_tau : float;
  record_rates : bool;
  swift : swift;
  dgd : dgd;
  rcp : rcp;
  dctcp : dctcp;
  pfabric : pfabric;
}

let default_swift =
  {
    ewma_time = 20e-6;
    dt_slack = 6e-6;
    init_burst = 3;
    weight_quant_base = None;
    srpt_eps = 0.125;
  }

let default_dctcp = { dctcp_mark_threshold = 30_000; dctcp_gain = 1. /. 16. }

let default_pfabric = { pfabric_buffer_bytes = 36_000; pfabric_rto = 48e-6 }

let default =
  {
    buffer_bytes = 1_000_000;
    rate_measure_tau = 80e-6;
    record_rates = false;
    swift = default_swift;
    dgd = Nf_num.Price_law.dgd_table2;
    rcp = Nf_num.Price_law.rcp_table2;
    dctcp = default_dctcp;
    pfabric = default_pfabric;
  }
