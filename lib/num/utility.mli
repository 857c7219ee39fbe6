(** Utility functions for network utility maximization (Table 1 of the
    paper).

    Every algorithm in this repository reads a utility through two
    functions: the marginal utility [U'] ({!deriv}: Eq. 9's residuals and
    the KKT check) and its inverse [U'^-1] ({!rate_from_price}: the
    rate/weight at which the marginal utility equals a path price, Eqs. 3
    and 7). A utility is therefore its shape: the parameters of an
    α-fair [U'], or, for a custom utility, the two functions themselves.
    [U] itself has no reader here; the test reference's dual objective
    evaluates its own α-fair formula.

    All utilities here are smooth, increasing and strictly concave on
    rates [x > 0]. Rates can be expressed in any unit (the library uses
    bits per second); utilities are scale-consistent in the sense that the
    induced allocation of a NUM problem does not depend on the unit as long
    as it is used consistently. *)

type t = private
  | Log of { weight : float }
      (** [U'(x) = w/x]: α-fair with [α = 1] (proportional fairness). *)
  | Power of { weight : float; alpha : float; walpha : float; inv_alpha : float }
      (** [U'(x) = w^α x^(-α)]: α-fair with [α <> 1]. [walpha = w^α] and
          [inv_alpha = -1/α] are precomputed once. *)
  | Opaque of { deriv : float -> float; inv_deriv : float -> float }
      (** A custom utility from {!make}: [U'] and [U'^-1] as closures. *)
(** Hot solver loops evaluate the [Log] and [Power] shapes with inline
    unboxed arithmetic; only [Opaque] makes a closure call (which boxes
    the float argument and result). Other modules match on the shape
    where they need α itself: [Newton_polish.eligible]/[evaluate] and
    [Proto_swift]'s SRPT law. *)

val make : deriv:(float -> float) -> inv_deriv:(float -> float) -> t
(** Escape hatch for custom utilities: [deriv] is [U'(x)], positive and
    decreasing, and [inv_deriv] is [U'^-1(p)] for [p > 0]. The caller is
    responsible for concavity and for [inv_deriv] actually inverting
    [deriv]. *)

val alpha_fair : ?weight:float -> alpha:float -> unit -> t
(** Weighted α-fair utility (rows 1–2 of Table 1):
    [U(x) = w^α x^(1-α) / (1-α)] for [α <> 1] and [w ln x] for [α = 1]
    ([Log] when [α] is within 1e-12 of 1, else [Power]).
    [α = 0] is disallowed (not strictly concave); α must be positive and
    [weight] (default 1) positive.
    - [α -> 0]: throughput maximization;
    - [α = 1]: (weighted) proportional fairness;
    - [α -> ∞]: max-min fairness. *)

val proportional_fair : ?weight:float -> unit -> t
(** [alpha_fair ~alpha:1.]. *)

val fct : size:float -> eps:float -> t
(** Flow-completion-time utility (row 3 of Table 1, with the strictly
    concave ε-correction of the paper's footnote 2):
    [U(x) = (1/size) x^(1-ε) / (1-ε)]. Equivalent to a weighted α-fair
    utility with [α = ε] and weight [size^(-1/ε)]; the paper uses
    [ε = 0.125]. [size] must be positive, [eps] in (0, 1). *)

val fct_weight : size:float -> eps:float -> float
(** [size ** (-1/eps)], the weight {!fct} gives its α-fair utility
    (α = [eps]). Unchecked: {!fct} validates [size] and [eps]. *)

val deadline : deadline:float -> eps:float -> t
(** Earliest-Deadline-First approximation (§2: "the weights can be chosen
    inversely proportional to ... flow deadlines to approximate ...
    Earliest-Deadline-First scheduling"): like {!fct} but weighted by
    [1/deadline] (seconds) instead of [1/size]. *)

val fct_remaining : remaining:float -> eps:float -> t
(** Shortest-Remaining-Processing-Time approximation (§2): the {!fct}
    utility evaluated at the flow's current remaining size (floored at
    1); senders re-derive it as the flow drains. *)

val min_price : float
(** Floor applied to path prices before inverting the marginal utility
    (1e-300 — guards division by zero only; any larger floor would impose
    an artificial price scale and break utilities whose optimal prices are
    tiny, e.g. alpha-fair with alpha >= 2 at Gbps rates): [U'^-1] diverges
    as the price approaches 0, and measured prices can transiently be 0 or
    slightly negative. *)

val deriv : t -> float -> float
(** [U'(x)]. The [Log] and [Power] shapes floor [x] at 1e-12 (measured
    rates can transiently be 0, where [U'] diverges): [w / x] and
    [w^α x^(-α)]. [Opaque] applies its closure to [x] as given.
    Allocation-free except for [Opaque]. *)

val rate_from_price : t -> float -> float
(** [U'^-1 (max p min_price)] capped at 1e300 (so steep inverses cannot
    overflow to infinity; only the relative ordering of weights matters;
    NaN also maps to the cap): [w / p] and [w p^(-1/α)] for the shapes,
    the closure for [Opaque]. This is the safe form of Eqs. 3 and 7 used
    by DGD senders and by xWI's weight computation. Allocation-free
    except for [Opaque]. *)

(** {2 Shapes on explicit parameters}

    The formulas behind {!deriv} and {!rate_from_price}, for a caller
    whose α-fair weight moves per event and who keeps it (and
    [weight ** alpha]) itself instead of building a utility each time:
    SRPT senders re-derive an {!fct} weight from the remaining size per
    ACK. [log_shape] selects the {!Log} formula, else the {!Power} one;
    the results are bit-identical to {!deriv} and {!rate_from_price} on
    the corresponding utility. *)

val alpha_fair_deriv :
  log_shape:bool -> weight:float -> walpha:float -> alpha:float -> float -> float
(** [U'(x)] at [max x 1e-12] (the rate floor every shape's [deriv]
    applies): [weight / x] for the log shape, else
    [walpha * x^(-alpha)]. *)

val alpha_fair_rate :
  log_shape:bool -> weight:float -> inv_alpha:float -> float -> float
(** [U'^-1(p)] at [max p min_price], capped at 1e300:
    [weight / p] for the log shape, else [weight * p^inv_alpha] with
    [inv_alpha = -1/alpha]. *)
