(** Shared machinery for the paper-evaluation experiments.

    Every experiment is deterministic given [seed] and scales with
    [runs]; the defaults are sized so the full suite terminates in
    minutes (the paper uses 1000 runs per figure — set
    [EMPOWER_RUNS] or pass [--runs] to match). *)

type topology = Residential | Enterprise

val topology_name : topology -> string
(** ["residential"] / ["enterprise"]. *)

val generate : topology -> Rng.t -> Builder.instance
(** Draw one instance of the given topology family. *)

val random_flow : Rng.t -> Builder.instance -> int * int
(** A (source, destination) pair as in Section 5.1: the source
    uniformly among dual (PLC/WiFi) nodes, the destination uniformly
    among all other nodes — never two WiFi-only endpoints. *)

val random_flows : Rng.t -> Builder.instance -> n:int -> (int * int) list
(** [n] distinct such pairs (distinct sources). *)

val split_rngs : Rng.t -> int -> Rng.t list
(** [split_rngs master n] is the list of [n] independent streams split
    off [master] in order — stream [i] is the [i]-th split, exactly
    what the historical [for]-loop drew at the top of replication [i].
    Pre-splitting in submission order is what lets [Exec.map] fan the
    replications out over domains with bit-identical results. Raises
    [Invalid_argument] when [n < 0]. *)

val runs_scaled : int -> int
(** Scale a default run count by the [EMPOWER_RUNS] environment
    variable when set ([EMPOWER_RUNS] is the target for experiments
    whose default is 100; other defaults scale proportionally). *)

val percent : float -> string
(** Format a fraction as a percentage string. *)
