(** The hybrid-network multigraph G(V, {E_1, ..., E_K}) of Section 2.

    Nodes are integers [0 .. n_nodes-1]. Each physical (bidirectional)
    edge of technology [k] is materialized as two directed links that
    share the same medium; link capacities are in Mbit/s. A link is
    usable when its capacity is strictly positive; the paper's
    [d_l = 1/c_l] metric is exposed as {!d} and is [infinity] for
    unusable links, so routing naturally avoids them.

    Values of type {!t} are immutable: the routing [update] procedure
    (Section 3.2) derives new views with {!with_capacities}. *)

type link = {
  id : int;          (** dense link identifier, [0 .. num_links-1] *)
  src : int;         (** transmitting node *)
  dst : int;         (** receiving node *)
  tech : int;        (** technology index, [0 .. n_techs-1] *)
  peer : int;        (** id of the reverse-direction link *)
  edge : int;        (** physical-edge identifier shared with [peer] *)
}

type t
(** Immutable multigraph with current link capacities. *)

val create :
  n_nodes:int -> n_techs:int -> edges:(int * int * int * float) list -> t
(** [create ~n_nodes ~n_techs ~edges] builds a multigraph from
    physical edges [(u, v, tech, capacity_mbps)]. Each edge yields two
    directed links ([u->v] first). Raises [Invalid_argument] on bad
    node ids, bad technology indexes, non-finite or negative
    capacities, or self-loops. *)

val n_nodes : t -> int
(** Number of nodes. *)

val n_techs : t -> int
(** Number of technologies [K]. *)

val num_links : t -> int
(** Number of directed links (twice the number of physical edges). *)

val link : t -> int -> link
(** Link record by id. Raises [Invalid_argument] on bad ids. *)

val links : t -> link array
(** All links, indexed by id. Do not mutate. *)

val capacity : t -> int -> float
(** Current capacity (Mbit/s) of a link, by id. *)

val capacities : t -> float array
(** Copy of the full capacity vector, indexed by link id. *)

val d : t -> int -> float
(** [d g l] is [1 /. capacity g l], the paper's airtime-per-bit metric;
    [infinity] when the capacity is zero. *)

val d_into : t -> float array -> unit
(** [d_into g a] writes [d g l] into [a.(l)] for every link, without
    allocating. Raises [Invalid_argument] unless [a] has one slot per
    link. *)

val usable : t -> int -> bool
(** [true] iff the link currently has strictly positive capacity. *)

val out_links : t -> int -> int list
(** Ids of links leaving a node (any technology). *)

val in_links : t -> int -> int list
(** Ids of links entering a node. *)

val out_links_tech : t -> int -> int -> int list
(** [out_links_tech g u k]: ids of links leaving [u] with technology [k]. *)

val with_capacities : t -> float array -> t
(** A view of the same structure with a different capacity vector
    (the array is copied). Raises [Invalid_argument] on length
    mismatch or negative entries. *)

val scale_capacity : t -> int -> float -> t
(** [scale_capacity g l f] multiplies link [l]'s capacity by [f >= 0],
    returning a new view. *)

val find_links : t -> src:int -> dst:int -> int list
(** All directed links from [src] to [dst] (one per technology edge). *)

val pp_link : t -> Format.formatter -> int -> unit
(** Human-readable ["3->7 plc#2 45.0Mbps"]-style printer. *)
