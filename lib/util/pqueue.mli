(** Mutable binary min-heap keyed by integer time, changed in place.

    Keys, insertion sequence numbers and values live in three parallel
    arrays, so {!push} and {!pop_exn} allocate nothing once the arrays
    have grown to the heap's high-water mark.  Ties are broken by
    insertion order (FIFO among equal keys), which the event loop relies
    on for determinism.  Popping overwrites the vacated slot with the
    [dummy] given at creation, so the heap never keeps a popped value
    reachable. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty heap.  [dummy] fills slots that hold no element; it is
    never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push h key v] inserts [v] under [key], behind every element already
    queued under the same key. *)

val peek_key_exn : 'a t -> int
(** Smallest key.  Raises [Invalid_argument] on an empty heap. *)

val peek_exn : 'a t -> 'a
(** Value under the smallest key, without removing it.  Raises
    [Invalid_argument] on an empty heap. *)

val pop_exn : 'a t -> 'a
(** Remove and return the value under the smallest key.  Raises
    [Invalid_argument] on an empty heap. *)

val drain : 'a t -> (int -> 'a -> unit) -> unit
(** [drain h f] pops every element in order, applying [f] to its key
    and value. *)
