(** Per-node event journal: a bounded ring of typed kernel events.

    Every node keeps a journal of the distributed steps it takes —
    message sends and receives, net-level fault and coalescing
    decisions, invocation begin/retry/end, checkpoint rounds,
    replica-cache installs and invalidations, reincarnations.  Each
    event is stamped with the node, the virtual time and a trace
    context ({!Tracectx}), so {!Timeline.assemble} can later merge the
    journals of all nodes into cross-node causal trees.

    Journals in one cluster share a {!sink} so event ids are globally
    unique and allocated in engine execution order: under a fixed seed
    the whole journal (and anything exported from it) is
    byte-reproducible. *)

open Eden_util

type kind =
  | Send of { msg : string; dst : int option }
      (** [dst = None] means broadcast. *)
  | Recv of { msg : string; src : int }
  | Drop of { dst : int option; msgs : int }
      (** fault injection ate a transfer; [dst = None] means broadcast *)
  | Duplicate of { dst : int option; msgs : int }
  | Delay of { dst : int option; msgs : int }
  | Coalesce of { dst : int; msgs : int }
      (** a coalesced batch of [msgs] messages left for [dst] *)
  | Retry of { op : string; attempt : int }
  | Inv_begin of { op : string; target : string; caller : int option }
      (** an invocation entered the kernel at its requester; it roots
          its own trace.  [caller] is the trace id of the invocation
          whose handler made this call ([ctx.invoke] or
          [ctx.invoke_async]), so call trees can be rebuilt *)
  | Inv_end of { op : string; outcome : string }
  | Ckpt_round of { target : string; version : int }
  | Cache_install of { target : string; epoch : int }
  | Cache_invalidate of { target : string; epoch : int }
  | Activate of { target : string; version : int }
  | Alert of { rule : string; firing : bool }
      (** a {!Health} SLO rule changed state; recorded at the virtual
          time of the sampler tick that evaluated it *)
  | Clone_fanout of { op : string; sites : int }
      (** a read-only invocation left for [sites] (>= 2) sites at
          once, first response wins *)
  | Clone_win of { op : string; winner : int }
      (** the fan-out resolved; [winner] served it *)
  | Clone_cancel of { dst : int }
      (** a [Cancel] retraction left for losing site [dst] *)
  | Hedge of { op : string; dst : int }
      (** a hedged duplicate of a still-pending request left for
          [dst] after the latency-quantile threshold expired *)
  | Dir_hit of { target : string; home : int }
      (** the locate directory resolved [target] to [home] without a
          broadcast; the hint is unverified until the home replies *)
  | Dir_miss of { target : string }
      (** the registry shard had no (valid) entry for [target] *)
  | Dir_fallback of { target : string }
      (** the requester gave up on the directory for this attempt and
          fell back to a broadcast locate *)
  | Dir_publish of { target : string; home : int }
      (** a lease-stamped location update for [target] left for its
          registry shard *)
  | Epoch_bump of { epoch : int }
      (** this node's membership view advanced to [epoch]; recorded by
          the reconfiguration initiator and by every node applying an
          [Epoch_announce].  Per node, epochs must strictly increase —
          invariant 7 checks it. *)
  | Drain_move of { target : string; to_node : int }
      (** decommission drain evacuated [target] to [to_node] (and
          republished the move to the registry shard) before the
          draining node went dark *)
  | Work_start of { op : string }
      (** the invocation process for [op] began executing at the
          target; the gap from the triggering receive to this event is
          queue residency.  Only recorded with
          [Cluster.options.use_profiling] on. *)
  | Net_flush of { dst : int; msgs : int }
      (** this message left the per-destination coalescing queue in a
          batch of [msgs]; the gap from its send to this event is
          coalescer hold.  Profiling-gated like {!Work_start}. *)
  | Net_hold of { dst : int option; by : Time.t }
      (** fault injection held this message at the sender for [by]
          before transmitting; the profiler attributes the held span
          to the service category (a slow endpoint, not a slow wire).
          Profiling-gated. *)
  | Drain_stall of { target : string }
      (** the work item arrived while [target] was draining and was
          stashed until reactivation elsewhere; subsequent queue time
          is attributed to the drain category.  Profiling-gated. *)
  | Log of { text : string }
      (** free text from type code ([Api.ctx.log]), prefixed with the
          object's name and recorded at its home node; roots its own
          trace *)

val kind_name : kind -> string
val describe_kind : kind -> string

type event = {
  ev_id : int;  (** cluster-unique, allocated in execution order *)
  ev_node : int;
  ev_at : Time.t;  (** virtual time *)
  ev_trace : int;  (** id of the event that rooted this trace *)
  ev_parent : int option;  (** immediate causal predecessor, if any *)
  ev_kind : kind;
}

type sink
(** Shared id allocator; one per cluster. *)

val sink : unit -> sink

type t

val create : sink -> node:int -> cap:int -> t
(** A journal retaining at most [cap] events (oldest dropped first).
    [cap = 0] disables storage entirely: {!record} still allocates ids
    (trace contexts keep working) but nothing is retained and the
    counters stay at zero. *)

val enabled : t -> bool
val node : t -> int

val record : t -> at:Time.t -> ?ctx:Tracectx.t -> kind -> int
(** Append an event and return its id.  Without [ctx] the event roots
    a new trace (its trace id is its own id). *)

val events : t -> event list
(** Retained events, oldest first. *)

val recorded : t -> int
(** Total events ever recorded (the [eden.journal.events] counter). *)

val dropped : t -> int
(** Events overwritten by ring wrap-around (the [eden.journal.dropped]
    counter).  When non-zero, assembled traces are incomplete and the
    completeness-sensitive checker rules are skipped. *)

val pp_event : Format.formatter -> event -> unit
