(* Node and object state shared by the kernel's mechanisms, plus the
   helpers every one of them uses: sending, journalling, reply slots,
   object construction and the interface handed to type code. *)

open Eden_util
open Eden_sim
open Eden_hw
open Eden_net
module Metrics = Eden_obs.Metrics
module Critical = Eden_obs.Critical
module Journal = Eden_obs.Journal
module Tracectx = Eden_obs.Tracectx
module Health = Eden_obs.Health
module Topk = Eden_obs.Topk
module Window = Eden_obs.Window

type node_id = int

(* -------------------------------------------------------------------- *)
(* Internal structures *)

(* How to deliver an invocation's result back to its caller. *)
type reply_route =
  | Reply_local of Api.invoke_result Promise.t
  | Reply_remote of { requester : node_id; inv_id : Message.request_id }

type work = {
  w_op : string;
  w_args : Value.t list;
  w_presented : Rights.t;
  w_route : reply_route;
  mutable w_ctx : Tracectx.t option;
      (* the trace context the request arrived with, so the reply (and
         anything else this work causes) extends the same causal chain.
         Mutable only for profiling: Work_start / Drain_stall journal
         events re-parent the chain through themselves so queue and
         drain residency are visible as gaps on the causal path. *)
}

type obj_status = Running | Draining | Dead

(* One invocation class of one object: how many of its invocations
   run, and the admitted work waiting for a slot. *)
type class_state = { mutable cs_running : int; cs_queue : work Fifo.t }

type obj = {
  ob_name : Name.t;
  ob_type : Typemgr.t;
  mutable ob_repr : Value.t;
  mutable ob_frozen : bool;
  mutable ob_reliability : Reliability.t;
  mutable ob_home : node_id;
  mutable ob_status : obj_status;
  ob_is_replica : bool;
  ob_queue : work Mailbox.t;  (* the coordinator's port *)
  ob_stash : work Fifo.t;  (* held while draining for a move *)
  ob_classes : (string, class_state) Hashtbl.t;  (* by class name *)
  ob_inflight : (int, work) Hashtbl.t;  (* pid -> work being served *)
  mutable ob_running_total : int;
  ob_drained : Condition.t;
  mutable ob_coordinator : Engine.Pid.t option;
  mutable ob_behaviour_pids : Engine.Pid.t list;
  mutable ob_proc_pids : Engine.Pid.t list;  (* invocation + subprocesses *)
  ob_sems : (string, Semaphore.t) Hashtbl.t;
  ob_ports : (string, Value.t Mailbox.t) Hashtbl.t;
  ob_rng : Splitmix.t;
  ob_ctx : Api.ctx Lazy.t;
      (* the kernel interface handed to this object's type code: it
         depends only on the cluster and the object, so every
         invocation, behaviour and reincarnation handler shares one *)
  mutable ob_mem : int;  (* bytes reserved on the current home *)
  mutable ob_ckpt_sites : node_id list;
  mutable ob_ckpt_version : int;
      (* monotonic: bumped at the start of every checkpoint round and
         carried across reincarnations via the snapshot it restores *)
  mutable ob_ckpt_base : (int * Value.t) option;
      (* (version, repr) as of the last checkpoint round — the diff
         base for delta checkpoints.  Values are immutable, so holding
         the old representation is free (structure is shared). *)
  ob_ckpt_acked : (node_id, int) Hashtbl.t;
      (* highest version each checksite acknowledged; a site at the
         current base version gets a delta, anyone else a full write *)
  mutable ob_ckpt_inflight : bool;
      (* a checkpoint round is running; concurrent requests coalesce *)
  mutable ob_ckpt_queued : bool;
      (* a request arrived while in flight: run one follow-up round *)
  ob_ckpt_idle : Condition.t;  (* signalled when the round finishes *)
}

type snapshot = {
  ss_type : string;
  mutable ss_repr : Value.t;
  mutable ss_version : int;
      (* the checkpoint round that wrote this snapshot; reincarnation
         prefers the highest version among reachable checksites *)
  mutable ss_reliability : Reliability.t;
  mutable ss_frozen : bool;
  mutable ss_passive : bool;
      (* true when this snapshot is authoritative: the object is known
         not to be active anywhere *)
}

(* What a requester is waiting for, keyed by sequence number.  The
   boolean on [Inv_result] is the reply's frozen hint: the serving node
   saw the target immutable, so the requester may cache a replica. *)
type inv_outcome = Inv_result of Api.invoke_result * bool | Inv_nacked

type locate_state = {
  loc_candidates : (node_id * Message.residence * int) list ref;
      (* (site, residence, snapshot version) — version is meaningful
         for passive answers and 0 otherwise *)
  loc_active : (node_id * Message.residence) Promise.t;
      (* filled as soon as an active/replica site answers *)
}

(* One speculative fan-out: the same request id sent to every site in
   the clone set.  The first real result wins (and names the site it
   came from, so losers can be told apart and cancelled); nacks are
   only an answer once every site has nacked. *)
type clone_state = {
  cp_pr : (inv_outcome * node_id) Promise.t;
  cp_count : int;  (* sites fanned out to *)
  mutable cp_nacks : int;
}

type pending =
  | P_invoke of inv_outcome Promise.t
  | P_clone of clone_state
  | P_locate of locate_state
  | P_create of (Capability.t, Error.t) result Promise.t
  | P_ack of bool Promise.t
  | P_cache of (string * Value.t) option Promise.t
      (* a frozen representation being fetched for the replica cache *)
  | P_dir of (node_id * node_id list) option Promise.t
      (* a directory lookup in flight: [Some (home, replicas)] from
         the shard's [Dir_put] reply, [None] from its [Dir_nack] *)

(* One name's record at its registry shard: the last published home,
   the replica sites accumulated across publishes, and the publish
   stamp (virtual-time ns).  Stamps are monotonic per name — a
   delayed or duplicated pre-move publish can never regress the entry
   — and double as the lease: an entry older than [dir_lease_ttl] is
   dropped rather than served. *)
type dir_entry = {
  mutable de_home : node_id;
  mutable de_replicas : node_id list;
  mutable de_lease : int;
}

type node = {
  nd_id : node_id;
  nd_machine : Machine.t;
  nd_tp : Message.traced Internet.endpoint;
  mutable nd_up : bool;
  mutable nd_disk_ok : bool;
      (* false while the checkpoint store is failed: snapshots can
         neither be written nor read, so this node refuses checkpoint
         writes, reincarnations and passive locate answers *)
  mutable nd_mem : Memory.t;
  nd_active : obj Name.Table.t;
  nd_replicas : obj Name.Table.t;
  nd_cache : obj Name.Table.t;
      (* node-local frozen-replica cache: representations fetched on a
         frozen-hinted reply and served locally from then on.  Entries
         are hints in Lampson's sense — capabilities still validate on
         every use, and the nack path invalidates. *)
  nd_fetching : unit Name.Table.t;  (* cache fetches in flight *)
  nd_cache_epoch : int Name.Table.t;
      (* per-name invalidation generation: bumped whenever the name's
         cached representation is invalidated (unfreeze, nack,
         destroy).  A fetch snapshots the epoch before it asks and
         discards its payload if the epoch moved while the reply was
         in flight, so a delayed [Cache_data] can never install a
         stale pre-invalidation replica. *)
  nd_store : snapshot Name.Table.t;  (* survives node crashes *)
  nd_hints : node_id Name.Table.t;
  nd_forward : node_id Name.Table.t;  (* objects that moved away *)
  nd_activating : (obj, Error.t) result Promise.t Name.Table.t;
  nd_locating : (node_id * Message.residence) option Promise.t Name.Table.t;
      (* coalesces concurrent locate broadcasts for one name *)
  nd_pending : (int, pending) Hashtbl.t;
  nd_seq : Idgen.t;
  nd_clone_sites : node_id list Name.Table.t;
      (* replica sites learned from locate answers and frozen-hinted
         replies: the clone set for speculative reads.  Hints in
         Lampson's sense — a stale site just nacks its clone, which
         also evicts the entry *)
  nd_recent : Dedup.t;
      (* serving-side idempotence bookkeeping: recently seen request
         ids and what became of them, so duplicated, hedged and
         cancelled clones never double-apply (volatile; reset on
         crash) *)
  nd_types_loaded : (string, unit) Hashtbl.t;
  mutable nd_kprocs : Engine.Pid.t list;
  mutable nd_ckpt_async : int;
      (* asynchronous checkpoint pipelines currently in flight from
         this node (the eden.ckpt.async_inflight gauge) *)
  nd_journal : Journal.t;
      (* this node's event journal; survives crashes (it is observer
         state, not node state) *)
  nd_dir : dir_entry Name.Table.t;
      (* the registry shard this node serves: entries for every name
         whose ring position lands here.  Volatile — a crash empties
         it, and requesters fall back to broadcast and republish. *)
  mutable nd_epoch : int;
      (* this node's membership view: the epoch of the newest
         [Epoch_announce] it has applied (or initiated).  May lag the
         cluster epoch while an announce is in flight; invariant 7
         checks it only ever moves forward. *)
  mutable nd_draining : bool;
      (* decommission in progress: the node still serves traffic, but
         drain evacuation and the migration policy must not choose it
         as a destination *)
}

type options = {
  use_hint_cache : bool;
  use_forwarding : bool;
  coalesce_locates : bool;
  use_replica_cache : bool;
  use_ckpt_delta : bool;
  speculate : Api.speculate;
  use_directory : bool;
  use_profiling : bool;
}

(* Owned per-node counters on the invocation hot path (the sampled
   collectors for hardware and network are registered at
   construction). *)
type node_metrics = {
  m_inv : Metrics.counter;  (* invocations issued from this node *)
  m_remote : Metrics.counter;  (* requests that crossed the wire *)
  m_dispatch : Metrics.counter;  (* works admitted by coordinators here *)
  m_hint_hit : Metrics.counter;
  m_hint_miss : Metrics.counter;
  m_locates : Metrics.counter;  (* locate broadcasts issued *)
  m_nacks : Metrics.counter;  (* nacked requests (stale location) *)
  m_ckpts : Metrics.counter;  (* snapshots written on this node's disk *)
  m_ckpt_bytes : Metrics.counter;
  m_retries : Metrics.counter;  (* timed-out attempts re-issued *)
  m_recoveries : Metrics.counter;  (* successful reincarnations here *)
  m_orphans : Metrics.counter;  (* replies that arrived after timeout *)
  m_cache_hit : Metrics.counter;  (* invocations served by the replica cache *)
  m_cache_miss : Metrics.counter;  (* frozen-hinted replies with no entry *)
  m_cache_inval : Metrics.counter;  (* cached replicas dropped *)
  m_ckpt_delta_bytes : Metrics.counter;
      (* checkpoint payload shipped as deltas from this home node *)
  m_ckpt_full_bytes : Metrics.counter;  (* ... as full representations *)
  m_ckpt_fallbacks : Metrics.counter;
      (* delta writes nacked (version mismatch / lost base) and
         re-sent as full writes *)
  m_ckpt_coalesced : Metrics.counter;
      (* checkpoint requests folded into an in-flight round *)
  m_clone_fanouts : Metrics.counter;
      (* speculative fan-outs issued from this node *)
  m_clone_cancels : Metrics.counter;  (* cancellations sent to losers *)
  m_hedges : Metrics.counter;  (* hedged retries fired from this node *)
  m_dedup : Metrics.counter;
      (* duplicate requests dropped by the idempotence table here *)
  m_retracted : Metrics.counter;
      (* queued work dropped unexecuted because a cancel arrived *)
  m_dir_hits : Metrics.counter;
      (* locates resolved by a directory answer from this requester *)
  m_dir_misses : Metrics.counter;
      (* lookups this shard answered with "no valid entry" *)
  m_dir_nacks : Metrics.counter;
      (* directory-routed sends nacked by a stale home (requester) *)
  m_dir_fallbacks : Metrics.counter;
      (* attempts that gave up on the directory and broadcast *)
  m_dir_leases : Metrics.counter;
      (* expired entries dropped by this shard at lookup time *)
  m_epoch_bumps : Metrics.counter;
      (* membership view advances applied on this node *)
  m_drain_moves : Metrics.counter;
      (* objects evacuated from this node by a decommission drain *)
}

(* The health plane, present only when [Cluster.create ~health] asked
   for it: the SLO evaluator plus one hot-object sketch per node, fed
   from the invocation and locate paths. *)
type health_plane = {
  hp_health : Health.t;
  hp_topk : Topk.t array;  (* indexed by node id *)
}

(* Per-node sketch size: large enough that every object of the bench
   and chaos workloads is tracked exactly, small enough that the
   eviction min-scan stays trivial.  The space-saving error bound is
   total/capacity, so doubling this halves the worst-case
   over-estimate. *)
let topk_capacity = 64

(* Cluster-wide remote round-trip telemetry for hedged retries: the
   requester path bumps a cumulative bucket count per observed RTT and
   an engine sampler closes one tick at a time into a sliding
   {!Window.Hist}, exactly the windowed-quantile machinery the health
   plane's burn-rate rules use.  The hedge threshold is then a live
   quantile of recent RTTs rather than a guessed constant. *)
type hedge_state = {
  hs_hist : Window.Hist.h;
  hs_cum : int array;  (* cumulative per-bucket observation counts *)
  mutable hs_cum_over : int;
  hs_prev : int array;  (* the counts at the last closed tick *)
  mutable hs_prev_over : int;
}

type t = {
  eng : Engine.t;
  c_lan : Message.traced Internet.t;
  nodes : node array;
  types : (string, Typemgr.t) Hashtbl.t;
  c_rng : Splitmix.t;
  opts : options;
  c_ops : ops;
  mutable c_node_objects : Capability.t array;
      (* one kernel-created node object per node, fixed names *)
  mutable n_inv : int;
  mutable n_remote : int;
  c_metrics : Metrics.t;
  c_lat : Metrics.histogram;  (* end-to-end invocation latency, seconds *)
  c_nm : node_metrics array;
  mutable c_health : health_plane option;
  c_hedge : hedge_state option;  (* present iff hedging is enabled *)
  c_profile : Critical.fold option;
      (* present iff profiling is on: every journalled event is fed to
         the online attribution, which publishes the
         [eden.profile.*] counters the latency-share watchdogs read *)
  c_dir : Directory.t;
      (* the consistent-hash ring mapping names to registry shards at
         the boot membership (epoch 0); a pure function of the member
         set, shared by all nodes *)
  mutable c_epoch : int;
      (* the newest membership epoch any node has initiated; bumped by
         join and decommission.  Epoch 0 is the boot membership. *)
  mutable c_members : node_id list;
      (* ring members at [c_epoch], ascending.  Spares are powered
         nodes outside this list: reachable over the LAN, but owning
         no ring segment until a join admits them. *)
  c_rings : (int, Directory.t) Hashtbl.t;
      (* epoch -> the ring built for that membership, cached at bump
         time so a node serving through an old view keeps resolving
         against the exact ring its view names *)
}

(* The kernel operations type code reaches through its {!Api.ctx}.
   They live in the mechanism modules built on top of this one, so the
   cluster carries them, fixed once at construction. *)
and ops = {
  invoke :
    t ->
    from:node_id ->
    ?timeout:Time.t ->
    ?retry:Api.retry ->
    ?caller:int ->
    Capability.t ->
    op:string ->
    Value.t list ->
    Api.invoke_result;
  create :
    t ->
    from:node_id ->
    node:node_id ->
    type_name:string ->
    Value.t ->
    (Capability.t, Error.t) result;
  checkpoint : t -> obj -> (unit, Error.t) result;
  checkpoint_async : t -> obj -> (unit, Error.t) result;
  crash : t -> obj -> unit;
  move :
    t -> obj -> to_node:node_id -> self_inflight:bool -> (unit, Error.t) result;
  replicate : t -> obj -> to_node:node_id -> (unit, Error.t) result;
}

(* Invocation latencies span 10us local fast paths to multi-second
   locate-retry storms: log-spaced 1-3-10 bucket bounds, in seconds. *)
let latency_buckets =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

(* Checkpoint/move/replica acknowledgements: generous enough for a
   megabyte representation to cross the wire and settle on an era disk
   (~1 MB/s at best), tight enough to detect a dead peer. *)
let ack_timeout = Time.s 15

(* Serving-side idempotence table size.  Bounds memory, not
   correctness: sequence numbers are never reissued, so eviction can
   only let a duplicate re-execute, never drop a fresh request. *)
let dedup_cap = 8192

(* Lease on cancelled-only dedup entries.  A cancel that arrives for a
   request this node never saw leaves a tombstone whose only job is to
   swallow that request should it still show up; one virtual second
   out-lives any urgent-cancel / queued-request race by orders of
   magnitude.  Expiring them keeps a drop-heavy run from filling the
   table with dead keys and evicting entries that still guard real
   in-flight duplicates. *)
let dedup_ttl = Time.s 1

exception Fatal of string
(* Internal invariant violations surface loudly instead of corrupting
   the simulation. *)

(* -------------------------------------------------------------------- *)
(* Construction of per-node state *)

let make_node eng lan jsink ~journal_cap ~segment (cfg : Machine.config) =
  let machine = Machine.create eng cfg in
  let tp = Internet.attach lan ~segment ~name:cfg.Machine.name in
  {
    nd_id = Internet.address tp;
    nd_machine = machine;
    nd_tp = tp;
    nd_up = true;
    nd_disk_ok = true;
    nd_mem = Memory.create ~bytes:cfg.Machine.memory_bytes;
    nd_active = Name.Table.create 64;
    nd_replicas = Name.Table.create 16;
    nd_cache = Name.Table.create 16;
    nd_fetching = Name.Table.create 8;
    nd_cache_epoch = Name.Table.create 8;
    nd_store = Name.Table.create 64;
    nd_hints = Name.Table.create 64;
    nd_forward = Name.Table.create 16;
    nd_activating = Name.Table.create 8;
    nd_locating = Name.Table.create 8;
    nd_pending = Hashtbl.create 64;
    nd_seq = Idgen.create ();
    nd_clone_sites = Name.Table.create 8;
    nd_recent =
      Dedup.create ~ttl:dedup_ttl
        ~now:(fun () -> Engine.now eng)
        ~cap:dedup_cap ();
    nd_types_loaded = Hashtbl.create 16;
    nd_kprocs = [];
    nd_ckpt_async = 0;
    nd_journal =
      Journal.create jsink ~node:(Internet.address tp) ~cap:journal_cap;
    nd_dir = Name.Table.create 64;
    nd_epoch = 0;
    nd_draining = false;
  }

let make_node_metrics reg i =
  let labels = [ ("node", string_of_int i) ] in
  let c = Metrics.counter reg ~labels in
  {
    m_inv = c "eden.invocations";
    m_remote = c "eden.invocations_remote";
    m_dispatch = c "eden.dispatches";
    m_hint_hit = c "eden.hint_hits";
    m_hint_miss = c "eden.hint_misses";
    m_locates = c "eden.locate_broadcasts";
    m_nacks = c "eden.nacks";
    m_ckpts = c "eden.checkpoints";
    m_ckpt_bytes = c "eden.checkpoint_bytes";
    m_retries = c "eden.retries";
    m_recoveries = c "eden.recoveries";
    m_orphans = c "eden.orphaned_invocations";
    m_cache_hit = c "eden.replica_cache.hits";
    m_cache_miss = c "eden.replica_cache.misses";
    m_cache_inval = c "eden.replica_cache.invalidations";
    m_ckpt_delta_bytes = c "eden.ckpt.delta_bytes";
    m_ckpt_full_bytes = c "eden.ckpt.full_bytes";
    m_ckpt_fallbacks = c "eden.ckpt.fallbacks";
    m_ckpt_coalesced = c "eden.ckpt.coalesced";
    m_clone_fanouts = c "eden.clone.fanouts";
    m_clone_cancels = c "eden.clone.cancels";
    m_hedges = c "eden.hedge.sent";
    m_dedup = c "eden.dedup.dropped";
    m_retracted = c "eden.cancel.retracted";
    m_dir_hits = c "eden.dir.hits";
    m_dir_misses = c "eden.dir.misses";
    m_dir_nacks = c "eden.dir.nacks";
    m_dir_fallbacks = c "eden.dir.fallbacks";
    m_dir_leases = c "eden.dir.leases_expired";
    m_epoch_bumps = c "eden.epoch.bumps";
    m_drain_moves = c "eden.drain.moves";
  }

(* -------------------------------------------------------------------- *)
(* Small helpers *)

let valid_node cl i = i >= 0 && i < Array.length cl.nodes

let node_of cl i =
  if valid_node cl i then cl.nodes.(i)
  else invalid_arg (Printf.sprintf "Cluster: no such node %d" i)

(* Find the live primary of an object, scanning all nodes (an
   omniscient control-plane shortcut used by the external management
   operations, proactive rebuild and tests). *)
let find_primary cl name =
  let found = ref None in
  Array.iter
    (fun node ->
      if Option.is_none !found && node.nd_up then
        match Name.Table.find_opt node.nd_active name with
        | Some obj when obj.ob_status <> Dead -> found := Some obj
        | Some _ | None -> ())
    cl.nodes;
  !found

let costs node = (Machine.config node.nd_machine).Machine.costs
let consume node t = Cpu.consume (Machine.cpu node.nd_machine) t
let home cl obj = cl.nodes.(obj.ob_home)
let nm cl (node : node) = cl.c_nm.(node.nd_id)

let next_seq node = Idgen.next node.nd_seq

let new_request_id node =
  { Message.origin = node.nd_id; seq = next_seq node }

let deadline_of ?timeout eng =
  Option.map (fun d -> Time.add (Engine.now eng) d) timeout

let remaining eng = function
  | None -> None
  | Some dl ->
    let now = Engine.now eng in
    Some (if Time.(dl > now) then Time.diff dl now else Time.zero)

let spawn_daemon cl ~name f =
  let pid = Engine.spawn cl.eng ~name f in
  Engine.set_daemon cl.eng pid;
  pid

(* The pid lists kept for killing ([nd_kprocs], [ob_proc_pids]) hold
   only live processes, newest first: a process takes itself out when
   it finishes, which keeps the others in order, so a later kill walks
   the same live processes in the same order as a list that kept them
   all. *)
let rec drop_pid pid = function
  | [] -> []
  | p :: rest -> if Engine.Pid.equal p pid then rest else p :: drop_pid pid rest

(* A daemon listed by [add] that calls [leave] with its own pid when it
   returns or is killed. *)
let spawn_listed cl ~name ~add ~leave f =
  let pid =
    spawn_daemon cl ~name (fun () ->
        match f () with
        | () -> leave (Engine.self ())
        | exception e ->
          leave (Engine.self ());
          raise e)
  in
  add pid;
  pid

let spawn_kproc cl node ~name f =
  spawn_listed cl ~name f
    ~add:(fun pid -> node.nd_kprocs <- pid :: node.nd_kprocs)
    ~leave:(fun pid -> node.nd_kprocs <- drop_pid pid node.nd_kprocs)

let jrecord cl node ?ctx kind =
  let at = Engine.now cl.eng in
  let id = Journal.record node.nd_journal ~at ?ctx kind in
  (match cl.c_profile with
  | None -> ()
  | Some f -> Critical.feed f ~id ~node:node.nd_id ~at ?ctx kind);
  id

(* Journal the send and derive the envelope context: the message's
   parent is the send event itself, and its trace is the caller's (or a
   fresh trace rooted at the send when the caller has none). *)
let send_ctx cl node ?ctx msg ~dst =
  let s =
    jrecord cl node ?ctx (Journal.Send { msg = Message.describe msg; dst })
  in
  match ctx with
  | Some c -> Tracectx.with_parent c ~parent:s
  | None -> Tracectx.root s

let send_msg ?ctx cl node ~dst msg =
  if node.nd_up && dst <> node.nd_id then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:(Some dst) in
    Internet.send node.nd_tp ~dst (Message.traced ~ctx msg)
  end

(* Urgent unicast: flushes any coalescing batch queued for [dst] ahead
   of itself, so a cancellation never rides behind — or worse, inside
   the same wire transfer as — the very work it retracts. *)
let send_msg_now ?ctx cl node ~dst msg =
  if node.nd_up && dst <> node.nd_id then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:(Some dst) in
    Internet.send_now node.nd_tp ~dst (Message.traced ~ctx msg)
  end

let bcast_msg ?ctx cl node msg =
  if node.nd_up then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:None in
    Internet.broadcast node.nd_tp (Message.traced ~ctx msg)
  end

(* Distrust what [node] believed about [name]'s location. *)
let forget_location node name =
  Name.Table.remove node.nd_hints name;
  Name.Table.remove node.nd_forward name

(* -------------------------------------------------------------------- *)
(* Reply slots.

   Every request that expects an answer follows one discipline:
   [expect_reply] registers the slot under the request id's sequence
   number, the caller sends (and may consume CPU first, so its virtual
   time is unchanged), and [await_reply] blocks for the answer — or
   [timeout] — and retires the slot whatever the outcome, so a late
   reply is an orphan, never a leak.  The message handlers fill slots
   with [fill_reply]. *)

type 'a reply = { rp_node : node; rp_seq : int; rp_promise : 'a Promise.t }

let expect_reply cl node (req_id : Message.request_id) wrap =
  let pr = Promise.create cl.eng in
  Hashtbl.replace node.nd_pending req_id.seq (wrap pr);
  { rp_node = node; rp_seq = req_id.seq; rp_promise = pr }

let await_reply ?timeout r =
  let v = Promise.await ?timeout r.rp_promise in
  Hashtbl.remove r.rp_node.nd_pending r.rp_seq;
  v

(* An answer to one of [node]'s requests fills its slot if the slot is
   still open; [slot] picks the promise out of the kind of slot the
   answer is for. *)
let fill_reply node (req_id : Message.request_id) slot v =
  match Hashtbl.find_opt node.nd_pending req_id.seq with
  | None -> ()
  | Some p -> (
    Hashtbl.remove node.nd_pending req_id.seq;
    match slot p with
    | Some pr -> ignore (Promise.fill pr v)
    | None -> raise (Fatal "pending kind mismatch"))

(* Move, replica-install and checkpoint-write acknowledgements. *)
let ack_slot = function P_ack pr -> Some pr | _ -> None

(* -------------------------------------------------------------------- *)
(* Memory, type code and object construction *)

let load_type_code node tm =
  let tname = Typemgr.name tm in
  if Hashtbl.mem node.nd_types_loaded tname then Ok ()
  else begin
    let bytes = Typemgr.code_bytes tm in
    match Memory.reserve node.nd_mem bytes with
    | Error `Out_of_memory -> Error Error.Out_of_memory
    | Ok () ->
      (* Code segments come off the local disk (or, on a diskless
         node, would come from a file server; we model a local read). *)
      Disk.read (Machine.disk node.nd_machine) ~bytes;
      Hashtbl.replace node.nd_types_loaded tname ();
      Ok ()
  end

let object_footprint tm repr =
  Value.size_bytes repr + Typemgr.short_term_bytes tm

(* Room for one instance of [type_name] holding [repr] on [node]: the
   type's code is loaded and the instance's footprint reserved.  Every
   way an object comes to a node — creation, reincarnation, an incoming
   move, a replica install, a cache fill — starts here. *)
let reserve_instance cl node type_name repr =
  match Hashtbl.find_opt cl.types type_name with
  | None -> Error (Error.Bad_arguments ("unknown type " ^ type_name))
  | Some tm -> (
    match load_type_code node tm with
    | Error e -> Error e
    | Ok () -> (
      let footprint = object_footprint tm repr in
      match Memory.reserve node.nd_mem footprint with
      | Error `Out_of_memory -> Error Error.Out_of_memory
      | Ok () -> Ok (tm, footprint)))

let find_or_add tbl key create =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = create () in
    Hashtbl.replace tbl key v;
    v

let invoke_async cl ~from ?timeout ?retry ?caller cap ~op args =
  let pr = Promise.create cl.eng in
  ignore
    (spawn_daemon cl ~name:"invoke_async" (fun () ->
         let r =
           cl.c_ops.invoke cl ~from ?timeout ?retry ?caller cap ~op args
         in
         ignore (Promise.fill pr r)));
  pr

(* The trace of the invocation whose handler is the calling process,
   if it is one of [obj]'s invocation processes: a nested call records
   it on its [Inv_begin] as its caller. *)
let caller_trace obj =
  match Engine.self () with
  | exception Invalid_argument _ -> None
  | pid -> (
    match Hashtbl.find_opt obj.ob_inflight (Engine.Pid.to_int pid) with
    | Some { w_ctx = Some c; _ } -> Some (Tracectx.trace c)
    | Some { w_ctx = None; _ } | None -> None)

(* The kernel interface handed to type code.  Node ids named by type
   code are validated here, once, before any mechanism sees them. *)
let make_ctx cl obj =
  let ops = cl.c_ops in
  let with_node n ~refuse f = if valid_node cl n then f n else Error refuse in
  {
    Api.self = Capability.make obj.ob_name Rights.all;
    node_id = (fun () -> obj.ob_home);
    now = (fun () -> Engine.now cl.eng);
    random = obj.ob_rng;
    compute = (fun t -> consume (home cl obj) t);
    log =
      (fun s ->
        ignore
          (jrecord cl (home cl obj)
             (Journal.Log { text = Name.to_string obj.ob_name ^ ": " ^ s })));
    get_repr = (fun () -> obj.ob_repr);
    set_repr =
      (fun v ->
        if obj.ob_frozen then Error Error.Frozen_immutable
        else
          let mem = (home cl obj).nd_mem in
          let grow = Value.size_bytes v - Value.size_bytes obj.ob_repr in
          match
            if grow > 0 then Memory.reserve mem grow
            else Ok (Memory.release mem (-grow))
          with
          | Error `Out_of_memory -> Error Error.Out_of_memory
          | Ok () ->
            obj.ob_mem <- obj.ob_mem + grow;
            obj.ob_repr <- v;
            Ok ());
    invoke =
      (fun ?timeout ?retry cap ~op args ->
        ops.invoke cl ~from:obj.ob_home ?timeout ?retry
          ?caller:(caller_trace obj) cap ~op args);
    invoke_async =
      (fun ?timeout ?retry cap ~op args ->
        (* Look the caller up here: the spawned process has its own
           pid, so the per-pid lookup would miss it. *)
        invoke_async cl ~from:obj.ob_home ?timeout ?retry
          ?caller:(caller_trace obj) cap ~op args);
    create_object =
      (fun ~type_name ?node init ->
        with_node
          (Option.value ~default:obj.ob_home node)
          ~refuse:(Error.Bad_arguments "no such node")
          (fun node -> ops.create cl ~from:obj.ob_home ~node ~type_name init));
    checkpoint = (fun () -> ops.checkpoint cl obj);
    checkpoint_async = (fun () -> ops.checkpoint_async cl obj);
    set_reliability =
      (fun r ->
        match Reliability.validate r ~node_count:(Array.length cl.nodes) with
        | Error e -> Error (Error.Bad_arguments e)
        | Ok () ->
          obj.ob_reliability <- r;
          Ok ());
    crash = (fun () -> ops.crash cl obj);
    move_to =
      (fun n ->
        with_node n ~refuse:(Error.Move_refused "no such node") (fun to_node ->
            ops.move cl obj ~to_node ~self_inflight:true));
    freeze = (fun () -> obj.ob_frozen <- true);
    replicate_to =
      (fun n ->
        with_node n ~refuse:(Error.Move_refused "no such node") (fun to_node ->
            ops.replicate cl obj ~to_node));
    semaphore =
      (fun name ~init ->
        find_or_add obj.ob_sems name (fun () -> Semaphore.create cl.eng ~init));
    port =
      (fun name ->
        find_or_add obj.ob_ports name (fun () -> Mailbox.create cl.eng));
    spawn_subprocess =
      (fun f ->
        let name = Name.to_string obj.ob_name ^ ".sub" in
        ignore
          (spawn_listed cl ~name f
             ~add:(fun pid -> obj.ob_proc_pids <- pid :: obj.ob_proc_pids)
             ~leave:(fun pid ->
               obj.ob_proc_pids <- drop_pid pid obj.ob_proc_pids)));
  }

(* Object construction, shared by every way an object comes to a node. *)
let build_obj cl ~name ~tm ~repr ~frozen ~reliability ~home ~is_replica ~mem =
  let rec obj =
    {
      ob_name = name;
      ob_type = tm;
      ob_repr = repr;
      ob_frozen = frozen;
      ob_reliability = reliability;
      ob_home = home;
      ob_status = Running;
      ob_is_replica = is_replica;
      ob_queue = Mailbox.create cl.eng;
      ob_stash = Fifo.create ();
      ob_classes = Hashtbl.create 4;
      ob_inflight = Hashtbl.create 4;
      ob_running_total = 0;
      ob_drained = Condition.create cl.eng;
      ob_coordinator = None;
      ob_behaviour_pids = [];
      ob_proc_pids = [];
      ob_sems = Hashtbl.create 4;
      ob_ports = Hashtbl.create 4;
      ob_rng = Splitmix.split cl.c_rng;
      ob_ctx = lazy (make_ctx cl obj);
      ob_mem = mem;
      ob_ckpt_sites = [];
      ob_ckpt_version = 0;
      ob_ckpt_base = None;
      ob_ckpt_acked = Hashtbl.create 4;
      ob_ckpt_inflight = false;
      ob_ckpt_queued = false;
      ob_ckpt_idle = Condition.create cl.eng;
    }
  in
  obj
