(** Message mailboxes between simulation processes.

    Delivery uses direct hand-off: a value given to a blocked receiver
    cannot be intercepted by another receiver arriving at the same
    instant, and a receiver killed after the hand-off but before it ran
    passes the message on to the next receiver (or back to the head of
    the buffer), so no message is lost with it.  A blocking {!recv}
    allocates nothing in the mailbox.  A mailbox may be bounded, in
    which case {!send} blocks while the buffer is full. *)

type 'a t

val create : ?capacity:int -> Engine.t -> 'a t
(** [capacity], if given, bounds the number of buffered messages (it
    must be positive); otherwise the buffer is unbounded. *)

val send : ?timeout:Eden_util.Time.t -> 'a t -> 'a -> bool
(** Deliver a message, blocking while a bounded mailbox is full.
    Returns [false] only if [timeout] elapsed before there was room
    (the message was not delivered). *)

val try_send : 'a t -> 'a -> bool
(** Non-blocking send; [false] if the mailbox is full. *)

val recv : ?timeout:Eden_util.Time.t -> 'a t -> 'a option
(** Receive the oldest message, blocking while the mailbox is empty.
    [None] only on timeout. *)

val try_recv : 'a t -> 'a option
val length : 'a t -> int
(** Buffered (undelivered) messages. *)

val receivers_waiting : 'a t -> int
val senders_waiting : 'a t -> int
