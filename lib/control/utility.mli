(** Flow utility functions for network utility maximization.

    The controller maximizes [Σ_f U_f(x_f)] for increasing, strictly
    concave [U_f]. The paper (and this repository's experiments) uses
    proportional fairness [U(x) = log(1 + x)]; alpha-fair utilities
    are provided for ablations. Rates are in Mbit/s. *)

type t = {
  name : string;
  u : float -> float;        (** U(x), defined for x >= 0 *)
  u' : float -> float;       (** U'(x) > 0, strictly decreasing *)
  u'_inv : float -> float;   (** inverse of U' extended with 0 beyond U'(0) *)
  u'_into : float array -> float array -> unit;
      (** [u'_into src dst] sets [dst.(i) <- u' src.(i)] for every
          index of [src], bit-identical to [u'] and without allocating
          (the controller's per-slot marginals) *)
}

val proportional_fair : t
(** [U(x) = log(1 + x)]: the paper's throughput/fairness tradeoff.
    [U'(x) = 1/(1+x)], [U'^-1(q) = max 0 (1/q - 1)]. *)

val weighted_proportional_fair : weight:float -> t
(** [U(x) = w log(1 + x)] for [w > 0]. *)

val alpha_fair : alpha:float -> t
(** Mo–Walrand alpha-fair family on [1 + x] (so it is finite at 0):
    [alpha = 1] recovers proportional fairness; larger alpha is more
    fairness-leaning. Requires [alpha > 0]. *)

val total : t -> float list -> float
(** [Σ U(x_f)] over a list of flow rates. *)
