(** Self-healing recovery: failure detection, stale-state reset and
    bounded route re-discovery.

    The paper's testbed recovers from node failure in seconds
    (Fig. 12) because EMPoWER nodes detect dead neighbours and re-run
    route selection instead of waiting for the Section 4 dual prices
    to decay. This module provides the pieces the engine composes
    when its [recovery] config is set:

    - a per-route {!Detector} fed by the 100 ms ack stream (k
      consecutive missed acks, or a hello timeout when traffic is
      outstanding, mark a route dead; a subsequent ack marks it
      recovered);
    - {!Backoff}, the exponential reclaim-probe schedule with a cap
      and deterministic seeded jitter;
    - {!survivors} / {!replan}, route re-discovery by LSDB re-flood:
      live nodes re-advertise their usable links at a fresh sequence
      number, stale advertisements from dead or partitioned nodes are
      suppressed by the flooding discipline, and the viewer's
      reconstructed graph is intersected with ground-truth capacities
      before running the Section 3.2 multipath procedure.

    Everything here is deterministic: equal inputs (and equal rng
    states for the jittered backoff) give equal outputs. *)

type config
(** The switch for the engine's [recovery] field: [Some default]
    turns the self-healing control plane on. Its constants are
    fixed. *)

val default : config

val dead_ack_threshold : int
(** Consecutive ack-report windows with traffic injected but zero
    bytes acked before a route is declared dead (3, i.e. ~300 ms of
    silence under load). *)

val hello_timeout : float
(** Seconds without any ack while frames are outstanding before a
    route is declared dead — catches routes driven too slowly for the
    k-miss rule to fire (1.0). *)

module Backoff : sig
  val delay : Rng.t -> attempt:int -> float
  (** [delay rng ~attempt] is [min 2.0 (0.2 * 2^attempt)] seconds,
      multiplied by a uniform jitter in [0.9, 1.1) drawn from [rng]
      (one draw per call). Raises [Invalid_argument] when
      [attempt < 0]. *)
end

(** Per-route failure detector over the periodic ack stream. *)
module Detector : sig
  type t

  type verdict =
    | Alive  (** route healthy (or idle with nothing outstanding) *)
    | Suspect of int  (** consecutive misses so far, below threshold *)
    | Down of { since : float }
        (** just declared dead; [since] is the last time the route was
            known good, so detection latency is [now -. since] *)
    | Still_down  (** already dead, no news *)
    | Recovered of { down_for : float }
        (** an ack arrived on a dead route; [down_for] is the outage
            length as the detector saw it *)

  val create : n_routes:int -> now:float -> t
  (** Fresh detector; every route starts [Alive] with [last-ok = now]. *)

  val observe :
    t ->
    route:int ->
    now:float ->
    injected:float ->
    acked:float ->
    frame_bytes:float ->
    verdict
  (** Feed one ack-report window for one route: [injected] bytes were
      put on the route during the window, [acked] bytes were reported
      delivered. A window with more than two frames injected and
      nothing acked counts as a miss (the engine's dead-route rule);
      any positive [acked] clears all suspicion. *)

  val n_routes : t -> int

  val dead : t -> int -> bool
  (** Is the route currently declared dead? *)

  val down_since : t -> int -> float option
  (** Declaration time of the current outage, if any. *)

  val suspicion : t -> int -> int
  (** Current consecutive-miss count for the route — [0] when
      healthy, reset by any acked byte. Exposed so tests can assert
      that crash/restart flapping faster than [hello_timeout] leaks
      no Suspect state across recoveries. *)
end

val survivors :
  Multigraph.t ->
  caps:float array ->
  src:int ->
  routes:Paths.t list ->
  bool array * Lsdb.Flood.stats
(** Re-flood the link state from node [src]'s point of view (see
    {!replan}) and report, per route, whether every hop survives in
    the re-discovered graph. Routes are in list order. *)

val replan :
  Multigraph.t ->
  Domain.t ->
  caps:float array ->
  src:int ->
  dst:int ->
  Multipath.combination * Lsdb.Flood.stats
(** Full route re-discovery: every node is pre-seeded with its stale
    full-graph advertisement (sequence 1), live nodes re-advertise
    their currently usable links at sequence 2 and flood them over the
    surviving connectivity, the viewer keeps only the fresh
    generation, and the Section 3.2 multipath procedure runs on the
    original link-id space with capacities masked to the intersection
    of ground truth ([caps]) and the re-discovered view. Dead and
    partitioned nodes therefore cannot resurrect their links. Consumes
    no caller randomness. *)
