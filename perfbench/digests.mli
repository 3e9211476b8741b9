(** Pinned digests of operation outputs.

    Every operation of a workload prints one JSON document; its MD5
    digest at the default seed is pinned in [perfbench/reference.txt]
    (one [<workload> <op-key> <hex>] line per operation), so any change
    to an output byte shows up as a failed operation. *)

val of_output : string -> string
(** Hex MD5 of an output document. *)

type reference

val parse_reference : string -> (reference, string) result
(** Decode the reference file; blank lines are skipped, anything else
    that is not three space-separated fields with a 32-digit digest is
    an [Error] naming the line. *)

val render_reference : (string * string * string) list -> string
(** The file text for [(workload, key, hex)] entries, in order. *)

val mismatches : reference -> workload:string -> (string * string) list -> string list
(** Keys of the [(key, output)] pairs whose digest differs from the
    pinned one or that have no pinned digest, in input order. *)
