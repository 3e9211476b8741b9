(** Yen's algorithm: the n shortest loopless paths under the CSC metric.

    This implements the [n-shortest(G)] step of Section 3.2. The
    multipath exploration tree expands each multigraph vertex with the
    [n] shortest single-path-procedure routes; considering several
    candidates both enables route diversity and compensates for the
    single-path procedure not always returning the highest-throughput
    route. The paper uses [n = 5].

    Spur-path computations charge the channel-switching cost at the
    spur node according to the technology of the last root-path hop,
    so candidate costs equal {!Dijkstra.path_cost} of the full path.

    Every search, the first path's and each spur's, runs on one
    compiled {!Dijkstra.t}, so the tie-break contract of {!Dijkstra}
    holds throughout: states pop by cost, then push order, and
    relaxation goes in increasing link id. Candidates pop by cost, then
    by the order they were found. Bans are scoped to one spur: before
    each spur search every ban is lifted, then the spur's own are set
    (the next hop of every accepted path sharing the root prefix, and
    the root path's nodes before the spur node). *)

val k_shortest :
  ?csc:bool -> Multigraph.t -> src:int -> dst:int -> k:int -> (Paths.t * float) list
(** [k_shortest g ~src ~dst ~k] returns up to [k] distinct loopless
    paths in non-decreasing weight order (fewer if the network does
    not contain [k] usable paths; empty if [dst] is unreachable).
    Requires [k >= 1] and [src <> dst]; raises [Invalid_argument]
    naming [Yen.k_shortest] otherwise. It is [search (Dijkstra.compile
    ?csc g)]. *)

val search : Dijkstra.t -> src:int -> dst:int -> k:int -> (Paths.t * float) list
(** [search s ~src ~dst ~k] is {!k_shortest} on the multigraph view [s]
    currently holds, with its CSC setting. Reuse guarantee: it lifts any
    ban set on [s] before it starts and leaves [s] with none, so
    consecutive calls on one [s] (with {!Dijkstra.refresh} in between
    to move to another capacity view) return what a freshly compiled
    search would. Requires [k >= 1] and [src <> dst]. *)
