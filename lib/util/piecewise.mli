(** Non-decreasing piecewise-linear functions.

    The representation behind bandwidth functions (BwE, §2 of the paper):
    a function [B : fair-share -> Gbps] given by breakpoints, evaluated
    and inverted in closed form. Beyond the last breakpoint the
    function continues with the slope of its final segment. *)

type t

val of_points : (float * float) list -> t
(** [of_points \[(x0, y0); ...\]] builds the function through the given
    breakpoints. Requirements: at least two points, [x] strictly
    increasing, [y] non-decreasing.
    @raise Invalid_argument if the requirements are violated. *)

val points : t -> (float * float) list

val eval : t -> float -> float
(** Left of the first breakpoint the first segment's slope is extended
    (clamped at the first point's value going down only as far as 0 makes
    no sense for bandwidth functions, so we extend linearly; callers that
    need clamping should add an explicit breakpoint). *)

val inverse : t -> float -> float
(** [inverse f y] is the smallest [x] with [eval f x >= y]. Requires [f]
    to reach [y] on some segment of positive slope, or [y] to lie on a
    flat segment (then the left endpoint of that segment is returned).
    @raise Invalid_argument if [y] is below [eval f x0]. *)

val strictly_increasing : t -> bool
