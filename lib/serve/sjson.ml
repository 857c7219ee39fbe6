(* An alias kept only for nfbench/, which still names Nf_serve.Sjson. *)
include Nf_util.Json
