(** Kernel-to-kernel wire messages.

    Everything that crosses the Ethernet between Eden kernels is one of
    these.  {!size_bytes} feeds the transport's fragmentation and the
    LAN timing model. *)

type request_id = { origin : int; seq : int }
(** Unique per outstanding request: issuing node plus a node-local
    sequence number. *)

type residence = Res_active | Res_passive | Res_replica

type t =
  | Inv_request of {
      inv_id : request_id;
      target : Name.t;
      op : string;
      args : Value.t list;
      presented : Rights.t;  (** rights of the capability used *)
      reply_to : int;
      hops : int;  (** forwarding count; capped to break loops *)
      may_activate : bool;
          (** the requester located no active instance during a full
              broadcast window, so the receiving checksite may
              reincarnate from its snapshot even if it never saw a
              passivation notice (e.g. after a node power-off) *)
    }
  | Inv_reply of {
      inv_id : request_id;
      result : Api.invoke_result;
      frozen_hint : bool;
          (** the serving node saw the target frozen (immutable): the
              requester may cache a local replica and serve further
              invocations without the round trip *)
    }
  | Inv_nack of { inv_id : request_id; target : Name.t }
      (** "this node cannot serve or forward the request".  Always a
          unicast reply echoing the requester's own [inv_id]; the
          receiver also treats it as evidence its location knowledge
          (and any cached frozen replica) is stale.  Cache-only
          invalidation that is not a reply to anything travels as
          {!constructor:Cache_invalidate} instead. *)
  | Hint_update of { target : Name.t; at_node : int }
      (** sent to a requester whose request was forwarded *)
  | Locate_request of { req_id : request_id; target : Name.t; reply_to : int }
  | Locate_reply of {
      req_id : request_id;
      target : Name.t;
      at_node : int;
      residence : residence;
      version : int;
          (** for [Res_passive]: the answering checksite's stored
              snapshot version, so a requester reincarnating an object
              can prefer the freshest snapshot among the candidates
              instead of the first responder; 0 otherwise *)
    }
  | Create_request of {
      req_id : request_id;
      type_name : string;
      init : Value.t;
      reply_to : int;
    }
  | Create_reply of {
      req_id : request_id;
      result : (Capability.t, Error.t) result;
    }
  | Move_transfer of {
      target : Name.t;
      type_name : string;
      repr : Value.t;
      frozen : bool;
      reliability : Reliability.t;
      from_node : int;
      transfer_id : request_id;
    }
  | Move_ack of { transfer_id : request_id; accepted : bool }
  | Ckpt_write of {
      req_id : request_id;
      target : Name.t;
      type_name : string;
      repr : Value.t;
      version : int;
          (** monotonic snapshot version, stamped by the home node;
              lets reincarnation prefer the freshest checksite *)
      reliability : Reliability.t;
      frozen : bool;
      reply_to : int;
    }
  | Ckpt_delta of {
      req_id : request_id;
      target : Name.t;
      type_name : string;
      delta : Delta.t;  (** only the chunks that changed since the base *)
      base_version : int;
          (** the version the delta applies against; a checksite whose
              stored snapshot is at any other version acks [ok = false]
              and the home node falls back to a full {!Ckpt_write} *)
      version : int;  (** the version the snapshot holds after applying *)
      reliability : Reliability.t;
      frozen : bool;
      reply_to : int;
    }
  | Ckpt_ack of { req_id : request_id; ok : bool }
  | Ckpt_delete of { target : Name.t }
  | Ckpt_mark of { target : Name.t; passive : bool; version : int }
      (** best-effort notice to checksites that the object passivated
          (crash) or re-activated (reincarnation elsewhere), stamped
          with the sender's snapshot version; a mark older than the
          stored snapshot is ignored, so a delayed notice from a past
          incarnation cannot flip a newer snapshot's authority *)
  | Replica_install of {
      target : Name.t;
      type_name : string;
      repr : Value.t;
      transfer_id : request_id;
      from_node : int;
    }
  | Replica_ack of { transfer_id : request_id; accepted : bool }
  | Destroy_notice of { target : Name.t }
      (** the object is gone for good: drop snapshots, replicas and
          location knowledge *)
  | Cache_fetch of { req_id : request_id; target : Name.t; reply_to : int }
      (** "send me the frozen representation of [target] so I can
          cache it locally" *)
  | Cache_data of {
      req_id : request_id;
      target : Name.t;
      payload : (string * Value.t) option;
          (** [(type_name, repr)]; [None] when the serving node no
              longer holds a frozen copy *)
    }
  | Cache_invalidate of { target : Name.t }
      (** the version bump: [target]'s frozen representation changed
          (unfreeze), so drop location hints and any cached replica.
          Deliberately carries no [request_id] — it is broadcast, not a
          reply, and must never be confused with a pending request on
          the receiving node. *)
  | Cancel of { inv_id : request_id; target : Name.t }
      (** "withdraw my outstanding request [inv_id] for [target]": a
          clone fan-out resolved elsewhere (or the requester gave up),
          so a site still holding the cloned work may discard it.
          Purely advisory — a site that already started or finished
          executing ignores it; the requester's idempotence
          bookkeeping makes any late reply harmless.  Sent urgently
          (bypassing the coalescer) so the retraction is never queued
          behind the very work it cancels. *)
  | Dir_put of {
      req_id : request_id;
      target : Name.t;
      home : int;
      replicas : int list;
      lease : int;
          (** publish stamp in virtual-time nanoseconds; the shard
              keeps the highest stamp it has seen per name, so a
              delayed or duplicated update from before a move can
              never regress the registry — the same lazy-staleness
              discipline as the replica cache's invalidation epochs *)
    }
      (** a registry update for [target]'s shard: the current home
          and the publisher's known replica sites.  Doubles as the
          positive reply to {!constructor:Dir_get} — a receiver that
          holds a pending directory lookup under its own [req_id]
          treats it as the answer, anyone else as a publish. *)
  | Dir_get of { req_id : request_id; target : Name.t; reply_to : int }
      (** "where does [target] live?" — the unicast lookup sent to
          the name's registry shard instead of a broadcast locate *)
  | Dir_nack of { req_id : request_id; target : Name.t; home : int }
      (** miss reply from a shard ([home = -1]: no valid entry, fall
          back to broadcast), or — sent requester-to-shard with the
          stale [home] — the lazy NACK-on-wrong-home invalidation:
          the shard drops its entry only if it still names that
          home *)
  | Epoch_announce of { epoch : int; members : int list }
      (** membership changed: the cluster's view advanced to [epoch]
          with exactly [members] (ascending) in the ring.  Broadcast
          by the reconfiguration initiator; a receiver whose own view
          is older adopts it (and journals the bump), a newer or equal
          view ignores it — epochs are totally ordered, so the highest
          one wins regardless of delivery order. *)

val size_bytes : t -> int
(** Modelled wire size, including a fixed per-message header. *)

val describe : t -> string
(** Short human-readable tag for tracing.  An invocation's request and
    reply texts are memoised by the fields they print, so describing
    them again allocates nothing. *)

(** {1 In-sim envelope}

    A message crosses the simulated LAN as an OCaml value, never as
    bytes; {!traced} wraps it with its trace context for that path,
    and {!traced_size} sets its wire time. *)

type traced = { tr_ctx : Eden_obs.Tracectx.t option; tr_msg : t }

val traced : ?ctx:Eden_obs.Tracectx.t -> t -> traced

val traced_size : traced -> int
(** {!size_bytes} of the payload plus the envelope prefix cost when a
    context is present; feeds the LAN timing model. *)
