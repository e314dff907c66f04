(** System-wide, unique-for-all-time object names.

    A name records the node on which the object was created and a
    serial number drawn from that node's generator; as the paper notes,
    a name is location-independent although it may indicate where the
    object was created.  Names are never reused, even after the object
    is destroyed. *)

type t

val make : birth_node:int -> serial:int -> t
(** Raises [Invalid_argument] on negative components. *)

val birth_node : t -> int
val serial : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** The ["obj<B.S>"] form, the same text as {!pp}.  It is rendered once,
    when the name is made, so this allocates nothing. *)

val of_string : string -> t option
(** Inverse of {!to_string}: parses exactly the ["obj<B.S>"] form with
    non-negative components; anything else is [None]. *)

module Table : Hashtbl.S with type key = t
