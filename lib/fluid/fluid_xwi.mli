(** Fluid NUMFabric: the xWI iteration of {!Nf_num.Xwi_core} packaged as a
    {!Scheme.t}.

    One round = one synchronized price update ([interval] defaults to
    Table 2's priceUpdateInterval, {!Nf_num.Price_law.xwi_interval}).
    The scheme starts at xWI's seed ({!Nf_num.Xwi_core.at_seed}), never
    at the polished cold start: its rounds from there are what the
    experiments measure.
    Rebinding preserves link prices across flow arrivals/departures,
    exactly as real switches would: it restarts through
    {!Nf_num.Xwi_core.resize} with [~polish:false], whose handed-down
    scratch also spares the rebind the state's buffers. A rebind to a problem over a different number
    of links raises [Invalid_argument]. *)

val make :
  ?params:Nf_num.Xwi_core.params ->
  ?interval:float ->
  Nf_num.Problem.t ->
  Scheme.t
(** Each round emits an [XwiIter] trace event (time = round × interval)
    to {!Nf_util.Trace.default} (resolved at emission time).
    Per-iteration solver diagnostics attach through the process-wide
    {!Nf_num.Diag.configure}. *)
