(** Floating-point comparison helpers.

    Simulation code compares rates, prices and times that are the result of
    long chains of floating-point arithmetic; direct [=] is never right.
    All tolerances are expressed either absolutely ([eps]) or relatively
    ([rel]). *)

val default_eps : float
(** Absolute tolerance used when none is given (1e-9). *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] is [true] iff [|a - b| <= eps]. *)

val rel_eq : ?rel:float -> float -> float -> bool
(** [rel_eq a b] is [true] iff [|a - b| <= rel *. max 1. (max |a| |b|)].
    The [max 1.] floor makes the test behave absolutely near zero. *)

val within_fraction : frac:float -> actual:float -> target:float -> bool
(** [within_fraction ~frac ~actual ~target] is [true] iff [actual] is within
    [frac] (e.g. [0.1] for 10%) of [target]. A [target] of exactly [0.] only
    matches an [actual] below [frac *. 1e-6]. *)

val fmax : float -> float -> float
(** Comparison-only [Float.max]: bit-identical to the stdlib on every
    non-NaN input, ±0 included, and returns a NaN operand as it does, but
    makes no [caml_signbit_float] C call. The audited per-packet and
    solver kernels keep in-unit copies instead (a dev-profile build
    compiles with -opaque, and a non-inlined float call boxes). *)

val fmin : float -> float -> float
(** Comparison-only [Float.min], the twin of {!fmax}. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] limits [x] to the interval [\[lo, hi\]]. *)

val is_finite : float -> bool
(** [true] iff the argument is neither infinite nor NaN. *)
