(** The eight evaluation schemes of Section 5.1.

    Each scheme is a combination of technology set, routing procedure
    and congestion control:

    - [Empower]  — multipath routing, CC, PLC/WiFi;
    - [Sp]       — single-path routing, CC, PLC/WiFi;
    - [Mp_wifi]  — multipath routing, CC, single-channel WiFi;
    - [Sp_wifi]  — single-path routing, CC, single-channel WiFi;
    - [Mp_mwifi] — multipath routing, CC, two-channel WiFi;
    - [Mp_wo_cc] — multipath routing, {e no} CC, PLC/WiFi;
    - [Sp_wo_cc] — single-path routing, {e no} CC, PLC/WiFi;
    - [Mp_2bp]   — naive multipath returning the two shortest paths
                   (2-shortest), CC, PLC/WiFi.

    [evaluate] runs a scheme on one topology instance and a list of
    concurrent flows and returns the delivered per-flow rates:
    CC schemes run the multipath controller on the selected routes
    (initialized at the routing-estimated rates) and the resulting
    injection is checked against the fluid MAC; w/o-CC schemes inject
    each route's standalone rate estimate and suffer whatever the MAC
    delivers. Optional capacity-estimation noise and the constraint
    margin δ reproduce testbed (Section 6) conditions; the defaults
    (no noise, δ = 0) reproduce the idealized simulations (Section 5). *)

type t =
  | Empower
  | Sp
  | Sp_wifi
  | Mp_wifi
  | Mp_mwifi
  | Mp_wo_cc
  | Sp_wo_cc
  | Mp_2bp

val all : t list
(** All schemes, in the paper's listing order. *)

val name : t -> string
(** Paper-style name, e.g. ["MP-mWiFi"]. *)

val scenario : t -> Builder.scenario
(** Technology set the scheme runs on. *)

val uses_cc : t -> bool
(** Whether the congestion controller is active. *)

type options = {
  delta : float;          (** constraint margin δ of (3); default 0 *)
  estimate_noise : float; (** relative std of capacity estimation error; default 0 *)
  cc_slots : int;         (** controller slots to run; default 2000 *)
}

val default_options : options
(** δ = 0, no estimation noise, 2000 slots. *)

val routes_for :
  ?opts:options ->
  t ->
  Multigraph.t ->
  Domain.t ->
  src:int ->
  dst:int ->
  Paths.t list
(** The routes the scheme's routing procedure selects on the given
    (possibly estimate-based) graph. Empty when unreachable. No
    option affects route selection; [opts] is accepted so that one
    options record can be threaded through every stage. *)

val evaluate :
  ?opts:options ->
  Rng.t ->
  Builder.instance ->
  t ->
  flows:(int * int) list ->
  float array
(** Delivered rate of each flow (Mbit/s). The [Rng.t] drives the
    estimation noise only; with [estimate_noise = 0] the result is
    deterministic. *)
