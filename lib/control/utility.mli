(** The flow utility for network utility maximization.

    The controller maximizes [Σ_f U_f(x_f)]; the paper (and every
    experiment here) uses proportional fairness [U(x) = log(1 + x)],
    increasing and strictly concave. Rates are in Mbit/s. *)

val u : float -> float
(** [U(x) = log(1 + x)], defined for [x >= 0]. *)

val u' : float -> float
(** [U'(x) = 1/(1+x)], positive and strictly decreasing. *)

val u'_inv : float -> float
(** The inverse of [U'] extended with 0 beyond [U'(0)]:
    [U'^-1(q) = max 0 (1/q - 1)], [infinity] for [q <= 0]. *)

val u'_into : float array -> float array -> unit
(** [u'_into src dst] sets [dst.(i) <- u' src.(i)] for every index of
    [src], bit-identical to {!u'} and without allocating (the
    controller's per-slot marginals). *)
