(** Mutable FIFO queue with optional capacity bound.

    A ring-buffer queue used for run queues, mailboxes and device
    request queues.  Unlike [Stdlib.Queue] it supports a capacity bound
    ([push] reports refusal rather than growing) and O(1) [length].

    The ring stores the elements themselves, in an array made on the
    first push and doubled when full, so a {!push} / {!pop_exn} round
    trip allocates nothing.  A popped slot is overwritten, so the queue
    keeps no popped element reachable.  {!pop} and {!peek} allocate the
    option they return; hot paths test {!is_empty} and use {!pop_exn}
    or {!peek_exn}. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ?capacity ()] is an empty queue.  [capacity], if given, is
    the maximum number of queued elements; it must be positive.  No
    storage is allocated until the first push. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool
val capacity : 'a t -> int option

val push : 'a t -> 'a -> bool
(** [push q v] appends [v]; returns [false] (leaving [q] unchanged) when
    the queue is at capacity. *)

val push_exn : 'a t -> 'a -> unit
(** Like {!push} but raises [Invalid_argument] when full. *)

val push_front : 'a t -> 'a -> unit
(** Put [v] back at the front, to be popped next; raises
    [Invalid_argument] when full. *)

val pop : 'a t -> 'a option

val pop_exn : 'a t -> 'a
(** Remove and return the front element; raises [Invalid_argument] when
    the queue is empty. *)

val peek : 'a t -> 'a option

val peek_exn : 'a t -> 'a
(** The front element, left in place; raises [Invalid_argument] when
    the queue is empty. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit

val to_list : 'a t -> 'a list
(** Front-to-back snapshot. *)
