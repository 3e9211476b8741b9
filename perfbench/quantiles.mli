(** Order statistics for the benchmark's repeated measurements. *)

val median : float list -> float
(** Median (mean of the two middle values for an even count). Raises
    [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] exactly as Python's [statistics.quantiles(xs, n=4)]
    computes them (the default "exclusive" method). Needs at least two
    values. *)
