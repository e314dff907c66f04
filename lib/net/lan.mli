(** A CSMA/CD local area network.

    The model follows the classic Ethernet MAC: a station with a frame
    senses the medium; transmissions that begin within one contention
    slot of each other collide, after which each collider waits a
    random number of slots drawn from a truncated binary exponential
    backoff window and tries again.  A frame is dropped after
    [max_attempts] failures.

    Each attached station owns an unbounded transmit queue drained by a
    background transmitter process, so {!send} never blocks the caller.
    Delivery invokes the receiver callback registered with
    {!on_receive} one propagation delay after the frame leaves the
    wire; the callback must not block (hand the frame to a mailbox for
    real work).

    Payloads are an arbitrary type ['a]; only [bytes] participates in
    the timing model. *)

type 'a t
type 'a station

type dest = Unicast of int | Broadcast

type 'a frame = {
  src : int;  (** address of the sending station *)
  dest : dest;
  bytes : int;  (** payload size used for the timing model *)
  payload : 'a;
  sent_at : Eden_util.Time.t;  (** when {!send} accepted the frame *)
}

val create : ?params:Params.t -> Eden_sim.Engine.t -> 'a t
(** Raises [Invalid_argument] if [params] fails {!Params.validate}. *)

val params : 'a t -> Params.t
val engine : 'a t -> Eden_sim.Engine.t

val attach : 'a t -> name:string -> 'a station
(** Join a new station to the cable.  Addresses are assigned densely
    from 0 in attachment order. *)

val address : 'a station -> int
val station_name : 'a station -> string
val station_count : 'a t -> int

val on_receive : 'a station -> ('a frame -> unit) -> unit
(** Replaces any previous callback.  Frames arriving with no callback
    registered are counted as delivered and discarded. *)

val send : 'a station -> dest:dest -> bytes:int -> 'a -> unit
(** Queue a frame for transmission.  [bytes] must lie within the frame
    limits of the LAN's {!Params.t}; large messages must be fragmented
    by the caller (the kernel's message layer does this).  Raises
    [Invalid_argument] on an out-of-range size or on sending to self. *)

(** {2 Counters}  All counters are cumulative since creation. *)

type counters = {
  frames_sent : int;  (** accepted by {!send} *)
  frames_broadcast : int;  (** subset of [frames_sent] with [dest = Broadcast] *)
  frames_delivered : int;
  frames_dropped : int;  (** exceeded [max_attempts] *)
  payload_bytes_delivered : int;
  collision_events : int;  (** collisions on the medium *)
  backoffs : int;  (** individual station back-offs *)
}

val counters : 'a t -> counters

val busy_time : 'a t -> Eden_util.Time.t
(** Total time the medium carried a successful transmission (excludes
    jams), for utilisation computations. *)

val utilisation : 'a t -> over:Eden_util.Time.t -> float

val latency_stats : 'a t -> Eden_util.Stats.t
(** Per-frame delay from {!send} to delivery, in seconds. *)

