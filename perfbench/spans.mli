(** In-memory span recorder for the traced replay.

    A span brackets one call into a layer's public function; spans
    nest, and a span's {e self} time and allocation are its own minus
    what its child spans cover. Totals are kept per span name. Counts
    ([count]) record work done at the same boundaries (solver slots,
    LP rows, events). *)

type t

val create : unit -> t

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span called [name]; the span is
    closed (and recorded) also when [f] raises. *)

val count : t -> string -> float -> unit
(** Add to a named counter. *)

val calls : t -> string -> int
val total_s : t -> string -> float
val self_s : t -> string -> float

val self_words : t -> string -> float
(** Words allocated inside the span and outside its children (minor
    plus direct major allocations). *)

val counted : t -> string -> float
(** A counter's value (0 when never counted). *)
