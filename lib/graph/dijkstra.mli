(** Shortest paths on the hybrid multigraph with channel-switching cost.

    This is the single-path procedure of Section 3.1. The link weight
    is [W(l) = d_l = 1/c_l] (the ETT-equivalent metric), and a
    channel-switching cost (CSC) is charged at every intermediate node
    [u]: [w_ns(u) = min over usable egress links of d_l] when the path
    keeps the same technology through [u], and [w_s(u) = 0] when it
    switches. This choice (derived in the paper from the optimal CSC
    under the isotonicity requirement) favours technology-alternating
    paths, mitigating intra-path interference.

    Dijkstra runs on the virtual graph of (node, incoming technology)
    states, which makes the CSC compatible with the algorithm exactly
    as in Yang et al. [44]. *)

(** {2 Compiled search}

    A {!t} is compiled once per multigraph and then searched any number
    of times. It holds the per-link weights [d_l], the per-node
    non-switching cost [w_ns], the out-adjacency in increasing link-id
    order, and reusable distance, predecessor, heap and ban arrays, so
    a search allocates only its result.

    Tie-break contract, identical to the closure-based search this
    replaces: the heap pops states by cost, then by push order (a state
    is pushed each time its distance strictly drops); a popped state
    relaxes its out-links in increasing link id; the step over link
    [l] is [d_l +. csc], and a state's distance is [cost +. step]. The
    first destination state popped ends the search.

    Reuse guarantee: a search reads only the compiled topology, the
    weights of the last {!compile} or {!refresh}, and the current bans.
    Searches never change any of them, so repeated searches with the
    same arguments return equal results. *)

type t
(** A compiled search over one multigraph's topology. *)

val compile : ?csc:bool -> Multigraph.t -> t
(** [compile g] compiles [g]'s topology and loads its capacities.
    [?csc] (default [true]) disables the channel-switching cost when
    [false] (the paper sets CSC = 0 for single-technology WiFi
    scenarios). No link or node is banned. *)

val refresh : t -> Multigraph.t -> unit
(** [refresh s g'] reloads [d_l] and [w_ns] from [g'], which must be a
    capacity view of the compiled multigraph ({!Multigraph.with_capacities},
    {!Multigraph.scale_capacity}); raises [Invalid_argument] otherwise.
    Bans are kept. *)

val graph : t -> Multigraph.t
(** The capacity view last loaded by {!compile} or {!refresh}. *)

val ban_link : t -> int -> unit
(** [ban_link s l]: later searches skip link [l] until {!clear_bans}. *)

val ban_node : t -> int -> unit
(** [ban_node s u]: later searches never enter node [u] (the source is
    still expanded) until {!clear_bans}. *)

val clear_bans : t -> unit
(** Lift every link and node ban, in O(1). *)

val search :
  ?init_tech:int -> t -> src:int -> dst:int -> (Paths.t * float) option
(** [search s ~src ~dst] is the minimum-weight usable path and its
    weight under the current bans, or [None] if [dst] is unreachable
    over links of strictly positive capacity. [?init_tech] states that
    the (virtual) hop into [src] used the given technology, so the CSC
    at [src] is charged as if the path continued through it — used by
    Yen spur computations. Requires [src <> dst]. *)

val cost : ?init_tech:int -> t -> int list -> float
(** [cost s links] is the weight of an explicit hop list under the
    loaded weights: the sum of [d_l] plus the CSC at each node where
    the path keeps its technology, added left to right in the order a
    search adds them; [infinity] if any hop is unusable. [?init_tech]
    is as for {!search}. *)

(** {2 One-shot helpers} *)

val shortest_path :
  ?csc:bool ->
  ?init_tech:int ->
  Multigraph.t ->
  src:int ->
  dst:int ->
  (Paths.t * float) option
(** [shortest_path g ~src ~dst] is [search (compile g) ~src ~dst]:
    one search with nothing banned. Requires [src <> dst]. *)

val path_cost : ?csc:bool -> ?init_tech:int -> Multigraph.t -> Paths.t -> float
(** Weight of an explicit path under the same metric (sum of [d_l]
    plus CSC at intermediate nodes); [infinity] if any hop is
    unusable. It is [cost ?init_tech (compile ?csc g) path.links]. *)

val wns : Multigraph.t -> int -> float
(** [wns g u]: the non-switching cost at node [u], i.e. the minimum
    [d_l] over usable egress links of [u]; [infinity] when [u] has no
    usable egress link. Exposed for tests and ablations; it compiles
    [g] to read the value. *)
