(** Syntax of the metric names and units the benchmark prints. *)

val valid_metric : string -> bool
(** 1 to 64 characters from letters, digits, [_], [.] and [-],
    starting with a letter or a digit. *)

val valid_unit : string -> bool
(** 1 to 16 characters from letters, digits, [_], [/], [%], [.] and
    [-], as in [s], [ms], [1/s], [Mwords]. *)
