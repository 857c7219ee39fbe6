(** Utility functions for network utility maximization (Table 1 of the
    paper).

    A utility is represented by the three functions every algorithm in this
    repository needs: the value [U], the marginal utility [U'], and its
    inverse [U'^-1] (which maps a path price to the rate/weight at which the
    marginal utility equals that price — Eqs. 3 and 7 of the paper).

    All utilities here are smooth, increasing and strictly concave on
    rates [x > 0]. Rates can be expressed in any unit (the library uses
    bits per second); utilities are scale-consistent in the sense that the
    induced allocation of a NUM problem does not depend on the unit as long
    as it is used consistently. *)

type shape = private
  | Log of { weight : float }
      (** [U'(x) = w/x]: α-fair with [α = 1] (proportional fairness). *)
  | Power of { weight : float; alpha : float; walpha : float; inv_alpha : float }
      (** [U'(x) = w^α x^(-α)]: α-fair with [α <> 1]. [walpha = w^α] and
          [inv_alpha = -1/α] are precomputed with the exact expressions
          the closure fields use, so the fast evaluators below are
          bit-identical to the closures. *)
  | Opaque  (** Custom utility from {!make}: only the closures exist. *)
(** Analytic shape of the built-in utilities, letting hot solver loops
    evaluate [U'] / [U'^-1] with inline unboxed arithmetic instead of a
    closure call (which boxes the float argument and result). *)

type t = private {
  name : string;
  value : float -> float;  (** [U(x)], for [x > 0] *)
  deriv : float -> float;  (** [U'(x)], positive and decreasing *)
  inv_deriv : float -> float;  (** [U'^-1(p)], for [p > 0] *)
  shape : shape;  (** Analytic shape; {!Opaque} for custom utilities. *)
}

val make :
  name:string ->
  value:(float -> float) ->
  deriv:(float -> float) ->
  inv_deriv:(float -> float) ->
  t
(** Escape hatch for custom utilities. The caller is responsible for
    concavity and for [inv_deriv] actually inverting [deriv]. *)

val alpha_fair : ?weight:float -> alpha:float -> unit -> t
(** Weighted α-fair utility (rows 1–2 of Table 1):
    [U(x) = w^α x^(1-α) / (1-α)] for [α <> 1] and [w ln x] for [α = 1].
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
    utility evaluated at the flow's current remaining size; senders
    re-derive it as the flow drains. *)

val min_price : float
(** Floor applied to path prices before inverting the marginal utility
    (1e-300 — guards division by zero only; any larger floor would impose
    an artificial price scale and break utilities whose optimal prices are
    tiny, e.g. alpha-fair with alpha >= 2 at Gbps rates): [U'^-1] diverges
    as the price approaches 0, and measured prices can transiently be 0 or
    slightly negative. *)

val rate_from_price : t -> ?max_rate:float -> float -> float
(** [rate_from_price u p] is [U'^-1 (max p min_price)] capped at 1e300
    (so steep inverses cannot overflow to infinity; only the relative
    ordering of weights matters) and optionally clamped to [max_rate].
    This is the safe form of Eqs. 3 and 7 used by DGD senders and by
    xWI's weight computation. *)

val deriv_fast : t -> float -> float
(** [U'(x)] via the {!shape} dispatch: bit-identical to [u.deriv x] for
    the built-in utilities but allocation-free (the closure call would box
    argument and result). Falls back to the closure for {!Opaque}. *)

val rate_from_price_fast : t -> float -> float
(** [rate_from_price u p] (no [max_rate] clamp) via the {!shape}
    dispatch: bit-identical to the closure path but allocation-free for
    the built-in utilities. *)

(** {2 Shapes on explicit parameters}

    The formulas behind {!deriv_fast} and {!rate_from_price_fast}, for a
    caller whose α-fair weight moves per event and who keeps it (and
    [weight ** alpha]) itself instead of building a utility each time:
    SRPT senders re-derive an {!fct} weight from the remaining size per
    ACK. [log_shape] selects the {!Log} formula ([alpha_fair] picks it
    when [alpha] is within 1e-12 of 1), else the {!Power} one; the
    results are bit-identical to the [_fast] evaluators on the
    corresponding utility. *)

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
