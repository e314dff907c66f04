(** Condition variables for simulation processes.

    {!await} blocks the calling process until {!signal} or {!broadcast};
    there is no associated mutex because simulation processes never run
    concurrently — a process keeps control until it blocks.  The
    closure {!await} registers is made once, by {!create}, and neither
    {!signal} nor {!broadcast} allocates. *)

type t

val create : Engine.t -> t

val await : ?timeout:Eden_util.Time.t -> t -> Engine.wake
(** Block until signalled, or until [timeout] elapses. *)

val signal : t -> unit
(** Wake the longest-waiting pending process, if any. *)

val broadcast : t -> unit
(** Wake every pending process. *)

val waiters : t -> int
(** Number of processes currently blocked (stale entries excluded). *)
