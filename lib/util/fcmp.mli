(** Floating-point comparison helpers.

    Simulation code compares rates, prices and times that are the result of
    long chains of floating-point arithmetic; direct [=] is never right.
    All tolerances are expressed either absolutely ([eps]) or relatively
    ([rel]). *)

val within_fraction : frac:float -> actual:float -> target:float -> bool
(** [within_fraction ~frac ~actual ~target] is [true] iff [actual] is within
    [frac] (e.g. [0.1] for 10%) of [target]. A [target] of exactly [0.] only
    matches an [actual] below [frac *. 1e-6]. *)

val fmax : float -> float -> float
(** Comparison-only [Float.max]: bit-identical to the stdlib on every
    non-NaN input, ±0 included, and returns a NaN operand as it does, but
    makes no [caml_signbit_float] C call. The one copy every hot loop
    calls (the xWI and KKT sweeps, the price laws, STFQ): it is
    [\@inline], so the call inlines across units and its floats stay
    unboxed. *)

val fmin : float -> float -> float
(** Comparison-only [Float.min], the twin of {!fmax}. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] limits [x] to the interval [\[lo, hi\]]. *)

val is_finite : float -> bool
(** [true] iff the argument is neither infinite nor NaN. *)
