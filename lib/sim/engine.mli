(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and an event heap.  Work is
    expressed as {e processes}: ordinary OCaml functions that may call
    the blocking operations {!delay}, {!suspend} and {!yield}, which are
    implemented with effect handlers so that a process is suspended and
    resumed without threads.  Events scheduled for the same instant run
    in schedule order, so a run is a pure function of the seed and the
    program.

    Blocking synchronisation primitives (conditions, semaphores,
    mailboxes, resources) are built outside this module from {!suspend}
    / {!wake}.

    {b How a resume is parked.}  A process gets, once at spawn, the
    closure that every one of its start or resume events carries.  A
    blocking operation parks the process's continuation in the process
    itself and pushes that same closure: {!delay} at [now + d], {!wake}
    (and {!kill} of a blocked process) at [now].  A {!handle} names one
    suspension by its number, so waking it moves no continuation and a
    stale handle is told apart from a later suspension.  The effect
    handler is one per engine, since only one process runs at a time,
    and the event heap keeps its keys and callbacks in flat arrays.  So
    beyond the continuation the OCaml runtime creates, a delay resume
    allocates only the option that parks it, a suspend that option and
    its handle, and a {!schedule} callback nothing.  A timed {!suspend}
    adds one closure, the timeout check on its own handle.  Once an
    event has run, nothing in the engine keeps it, or what it captured,
    reachable. *)

module Pid : sig
  type t

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_int : t -> int
  val name : t -> string
  val pp : Format.formatter -> t -> unit
end

type t

exception Killed
(** Raised inside a process that is being killed, at its current
    blocking point, so that [Fun.protect] finalisers run. *)

exception Stalled_waiting
(** Raised inside a process whose suspension can never be woken because
    the simulation ran out of events while it was blocked (detected at
    end of run; see {!run}). *)

type wake =
  | Woken  (** {!wake} was called on the suspension. *)
  | Timed_out  (** The [timeout] given to {!suspend} elapsed first. *)

type handle
(** A suspended process, as stored by blocking primitives. *)

val create : ?seed:int64 -> unit -> t
(** A fresh engine with clock at {!Eden_util.Time.zero}.  [seed]
    (default 1) drives {!fork_rng}. *)

val now : t -> Eden_util.Time.t
val fork_rng : t -> Eden_util.Splitmix.t
(** An independent PRNG stream for one stochastic component. *)

val spawn :
  t -> ?name:string -> ?at:Eden_util.Time.t -> (unit -> unit) -> Pid.t
(** [spawn t f] registers a process whose body [f] starts at time [at]
    (default: now).  May be called from inside or outside processes.
    An exception escaping [f] (other than {!Killed}) aborts the run. *)

val kill : t -> Pid.t -> unit
(** Terminate a process.  A blocked or scheduled process receives
    {!Killed} at its suspension point; killing a finished or unknown
    process is a no-op.  A process may kill itself, in which case
    {!Killed} is raised immediately. *)

val alive : t -> Pid.t -> bool
(** [false] for a finished or unknown process.  The engine forgets a
    process once it finishes, so it holds only live ones. *)

val schedule : t -> ?after:Eden_util.Time.t -> (unit -> unit) -> unit
(** [schedule t f] runs the plain (non-blocking) callback [f] now,
    behind the events already queued for this instant.  [f] must not
    perform blocking operations.  [~after d] is {!schedule_after}, but
    boxes [d] in an option on every call; it is kept only for the
    benchmark's engine probe, which this library does not own. *)

val schedule_after : t -> Eden_util.Time.t -> (unit -> unit) -> unit
(** [schedule_after t d f] runs the plain callback [f] at [now + d].
    Timers, the MAC and the kernel use it; it allocates nothing. *)

(** {2 Operations callable only inside a process} *)

val self : unit -> Pid.t
val delay : Eden_util.Time.t -> unit
(** Advance virtual time for this process. *)

val yield : unit -> unit
(** Reschedule behind other work at the current instant. *)

val suspend : ?timeout:Eden_util.Time.t -> (handle -> unit) -> wake
(** [suspend register] blocks the calling process.  [register] is called
    with the suspension handle before control returns to the engine;
    the primitive stores it and later calls {!wake}.  If [timeout] is
    given and elapses first, the process resumes with {!Timed_out}. *)

(** {2 Waking} *)

val wake : t -> handle -> unit
(** Schedule the suspended process to resume (with {!Woken}) at the
    current instant.  Waking a handle that has already been woken,
    timed out, or whose process was killed is a no-op. *)

val handle_pending : handle -> bool
(** Whether {!wake} on this handle would still resume a process; lets
    primitives skip stale queue entries. *)

val handle_pid : handle -> Pid.t

val was_woken : t -> bool
(** Inside a process whose last {!suspend} raised instead of returning
    ({!Killed}, {!Stalled_waiting}): whether {!wake} had resumed that
    suspension first.  A primitive whose waker hands something over
    with the wake (a semaphore's permit, a mailbox's message) calls it
    on that exception path to pass the hand-off on rather than lose
    it. *)

(** {2 Running} *)

val run : ?until:Eden_util.Time.t -> t -> unit
(** Process events in time order until the heap is empty or the clock
    would pass [until].  When the heap empties while non-daemon
    processes are still suspended with no timeout, those processes are
    resumed with {!Stalled_waiting} (a deadlock diagnostic).  Raises
    [Invalid_argument] if called from inside a process. *)

val every : t -> interval:Eden_util.Time.t -> (unit -> unit) -> unit
(** Add a periodic sampler: from the current clock, [f] runs at every
    multiple of [interval] while events remain, as a plain
    non-blocking callback (like {!schedule} bodies).  Samplers are
    interleaved with heap events by time — at a shared instant the
    samplers fire first, so events landing exactly on a boundary count
    toward the next sample — but they are {e not} heap events: they
    never extend the run past the last real event, never perturb
    {!events_processed}, and a run with samplers executes the exact
    same event schedule as one without (the observability plane rides
    along without disturbing what it observes).  An engine holds any
    number of samplers; those sharing a boundary fire in registration
    order.  Raises [Invalid_argument] on a zero interval. *)

val set_daemon : t -> Pid.t -> unit
(** Mark a process as expected to be blocked at end of run (server
    loops, coordinators).  Daemons are exempt from stall detection and
    stay suspended across successive {!run} calls, resuming when later
    work wakes them. *)

val events_processed : t -> int
val processes_spawned : t -> int
val live_processes : t -> int

val runnable_processes : t -> int
(** Live processes that are scheduled or running (not suspended): the
    instantaneous depth of the runnable queue. *)

val blocked_processes : t -> Pid.t list
(** Processes currently suspended on {!suspend} (diagnostics for
    deadlock reports), ordered by pid. *)
