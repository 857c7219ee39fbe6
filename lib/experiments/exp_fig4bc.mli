(* Figures 4b/4c: convergence epochs, NUMFabric vs DCTCP-style. *)

type epoch = {
  from_t : float;
  until_t : float;
  expected : float;
  within_fraction_dctcp : float;
  within_fraction_numfabric : float;
}
type t = {
  epochs : epoch list;
  series_dctcp : (float * float) list;
  series_numfabric : (float * float) list;
  records : (string * Nf_sim.Record.t) list;
      (** each network's run record, DCTCP first; {!report} passes them on *)
}
val run : unit -> t
val report : t -> Report.t
