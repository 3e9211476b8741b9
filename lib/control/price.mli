(** Dual prices and airtime accounting — equations (7), (8), (9).

    Each node measures the airtime demand of its egress links and
    broadcasts per-technology aggregates; overhearing nodes assemble
    [y_l] for their own links, maintain the dual variables [γ_l], and
    stamp the running route cost into the layer-2.5 header so the
    destination learns [q_r]. This module is the centralized
    simulation of exactly that arithmetic.

    {b The kernel.} {!create} compiles a {!Problem.t} once into flat
    incidence arrays (carrier → routes, priced link → carriers,
    carrier → domain links, route → carriers, flow → routes) plus
    float scratch for demand, [y], link price, [q], flow rate and
    [U']. {!step}, {!route_costs}, {!marginals}, {!flow_rates} and
    {!Dual.step} work in place and allocate nothing, whatever the
    problem size. The only links touched are the {e carriers} (route
    links) and the {e priced} links
    (every link whose domain contains a carrier); every other [γ_l]
    stays 0.

    {b Summation order} (part of the contract: every figure, golden
    trace and the "same network ⇒ bit-identical allocation" property
    depend on it). Every sum starts from [0.0] and adds, in order:
    - carrier demand [d_l Σ x_r]: route ids ascending;
    - [y_i]: carrier demands in {!Domain.domain} order of [I_i];
    - link price [d_l Σ γ_i]: {!Domain.domain} order of [I_l];
    - [q_r]: link prices in {!Paths.links} order (a repeated hop
      counts twice);
    - flow rate: route ids in {!Problem.flow_routes} order. *)

(** The demand-driven half: [y] from per-carrier demand and the dual
    update (8). The packet engine fills {!demand} with measured
    airtime and steps it every control period; {!Price.step} fills it
    from route rates. *)
module Dual : sig
  type t

  val create : Domain.t -> delta:float -> is_carrier:bool array -> t
  (** Dual state with [γ = 0] for the links flagged in [is_carrier]
      (indexed by link id, one entry per link) and target [1 - δ]. *)

  val gamma : t -> float array
  (** [γ_l] per link id, by reference: writes (price resets) are
      seen by the next step. *)

  val carriers : t -> int array
  (** Carrier link ids, ascending; position [c] here is position [c]
      of {!demand}. *)

  val priced : t -> int array
  (** Link ids whose [γ] the step updates, ascending. *)

  val demand : t -> float array
  (** Per-carrier airtime demand, by reference; the caller's input to
      {!step}. *)

  val airtime : t -> int -> float
  (** [y_l] computed by the last {!step} (0 for a link that is not
      priced). *)

  val step : t -> alpha:float -> unit
  (** Equation (8) with the margin of (3) over every priced link:
      [y_i ← Σ_{l ∈ I_i} demand_l], then
      [γ_i ← [γ_i + α (y_i - (1 - δ))]+]. Allocates nothing. *)
end

type t
(** Compiled kernel for one {!Problem.t}: a {!Dual.t} plus the route
    and flow incidence and scratch. *)

val create : Problem.t -> t
(** Compile the problem; [γ = 0]. *)

val gamma : t -> float array
(** [γ_l] per link id, by reference (as {!Dual.gamma}). *)

val airtime : t -> int -> float
(** [y_l] from the last {!step}: equation (7). *)

val step : t -> x:float array -> alpha:float -> unit
(** One dual update under route rates [x]: carrier demand
    [d_l Σ_{r ∋ l} x_r] (equation (7)), then {!Dual.step}. *)

val route_costs : t -> unit
(** Equation (9) under the current [γ]: fills {!q}. *)

val q : t -> float array
(** [q_r] per route from the last {!route_costs} (by reference). *)

val flow_rates : t -> x:float array -> float array -> unit
(** [flow_rates t ~x dst] writes [Σ_{r ∈ f} x_r] into [dst.(f)] for
    every flow index of [dst]. *)

val marginals : t -> x:float array -> unit
(** [U'_f] of every flow's rate under [x], once per flow, into
    {!marginal}. *)

val marginal : t -> float array
(** Per-flow [U'] from the last {!marginals} (by reference). *)

val routes_on_link : t -> int -> int list
(** Route ids traversing a link, ascending (cached incidence; for
    tests). *)
