(** Mutable binary min-heap priority queue.

    The heap is ordered by a comparison supplied at creation; ties are
    broken by insertion order (FIFO among equal keys), which the event
    loop relies on for determinism. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek_exn : 'a t -> 'a
(** Smallest element, without removing it.  Raises [Invalid_argument]
    on an empty heap. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** Like {!pop}, without allocating the option.  Raises
    [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit

val drain : 'a t -> ('a -> unit) -> unit
(** [drain h f] pops every element in order, applying [f] to each. *)

val to_list_unordered : 'a t -> 'a list
(** Snapshot of the contents, in unspecified order. *)
