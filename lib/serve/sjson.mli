(* An alias kept only for nfbench/, which still names Nf_serve.Sjson. *)
include module type of struct include Nf_util.Json end
