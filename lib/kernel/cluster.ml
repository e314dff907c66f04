open Eden_util
open Eden_sim
open Eden_hw
module Metrics = Eden_obs.Metrics
module Span = Eden_obs.Span
module Journal = Eden_obs.Journal
module Tracectx = Eden_obs.Tracectx
module Timeline = Eden_obs.Timeline
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
  w_span : Span.t option;
  mutable w_ctx : Tracectx.t option;
      (* the trace context the request arrived with, so the reply (and
         anything else this work causes) extends the same causal chain.
         Mutable only for profiling: Work_start / Drain_stall journal
         events re-parent the chain through themselves so queue and
         drain residency are visible as gaps on the causal path. *)
}

type obj_status = Running | Draining | Dead

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
  ob_class_running : (string, int ref) Hashtbl.t;
  ob_class_queue : (string, work Fifo.t) Hashtbl.t;
  ob_inflight : (int, work) Hashtbl.t;  (* pid -> work being served *)
  mutable ob_running_total : int;
  ob_drained : Condition.t;
  mutable ob_coordinator : Engine.Pid.t option;
  mutable ob_behaviour_pids : Engine.Pid.t list;
  mutable ob_proc_pids : Engine.Pid.t list;  (* invocation + subprocesses *)
  ob_sems : (string, Semaphore.t) Hashtbl.t;
  ob_ports : (string, Value.t Mailbox.t) Hashtbl.t;
  ob_rng : Splitmix.t;
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
  mutable loc_candidates : (node_id * Message.residence * int) list;
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
  nd_tp : Transport.t;
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

let default_options =
  {
    use_hint_cache = true;
    use_forwarding = true;
    coalesce_locates = true;
    use_replica_cache = false;
    use_ckpt_delta = false;
    speculate = Api.no_speculation;
    use_directory = false;
    use_profiling = false;
  }

(* Owned per-node counters on the invocation hot path (the sampled
   collectors for hardware and network live in [register_collectors]). *)
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

(* Cluster-level critical-path counters (profiling only): per-category
   nanoseconds from finished request spans, mapped phase-by-phase so
   [Health.Share_of_latency] watchdogs can fire online, without
   assembling a timeline. *)
type profile_counters = {
  pc_service : Metrics.counter;
  pc_queue : Metrics.counter;
  pc_wire : Metrics.counter;
  pc_directory : Metrics.counter;
  pc_total : Metrics.counter;
}

type t = {
  eng : Engine.t;
  c_lan : Transport.net;
  nodes : node array;
  types : (string, Typemgr.t) Hashtbl.t;
  c_rng : Splitmix.t;
  opts : options;
  mutable c_node_objects : Capability.t array;
      (* one kernel-created node object per node, fixed names *)
  mutable n_inv : int;
  mutable n_remote : int;
  c_metrics : Metrics.t;
  c_spans : Span.collector;
  c_lat : Metrics.histogram;  (* end-to-end invocation latency, seconds *)
  c_nm : node_metrics array;
  c_span_ctx : (int, Span.t) Hashtbl.t;
      (* pid of a running invocation process -> the span it serves,
         giving nested [ctx.invoke] calls their parent link *)
  c_jsink : Journal.sink;  (* shared event-id allocator for all journals *)
  mutable c_health : health_plane option;
  c_hedge : hedge_state option;  (* present iff hedging is enabled *)
  c_profile : profile_counters option;  (* present iff profiling is on *)
  c_dir : Directory.t;
      (* the consistent-hash ring mapping names to registry shards at
         the boot membership (epoch 0); a pure function of the member
         set, shared by all nodes *)
  mutable c_dir_nack_fallback : bool;
      (* NACK-on-wrong-home invalidation armed (default).  Test
         scaffolding: disabling it lets the stale-hint regression show
         what the fallback exists to prevent. *)
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

let locate_window = Time.ms 3
let locate_retries = 3

(* Per-node journal ring size.  Generous enough that the chaos suite
   never wraps (wrapping only degrades trace completeness, it is not
   an error), small enough that the rings cycle within the cache: E20
   shows the journal's hot-path cost is dominated by the ring's cache
   footprint, and quadrupling this cap roughly doubles the overhead.
   [~journal_cap:0] disables retention entirely. *)
let default_journal_cap = 4096

(* Checkpoint/move/replica acknowledgements: generous enough for a
   megabyte representation to cross the wire and settle on an era disk
   (~1 MB/s at best), tight enough to detect a dead peer. *)
let ack_timeout = Time.s 15
let max_hops = 8

(* Invocation latencies span 10us local fast paths to multi-second
   locate-retry storms: log-spaced 1-3-10 bucket bounds, in seconds. *)
let latency_buckets =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

(* Hedge telemetry window: 1000 one-millisecond ticks.  The window
   must out-span a degradation episode, or the quantile chases the
   inflated latencies — each slow reply pushes the threshold past the
   next, and hedging disarms itself exactly when it is needed.  A
   second of history keeps the healthy baseline in the estimate. *)
let hedge_tick = Time.ms 1
let hedge_ticks = 1000

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
(* Small helpers *)

let node_of cl i =
  if i < 0 || i >= Array.length cl.nodes then
    invalid_arg (Printf.sprintf "Cluster: no such node %d" i)
  else cl.nodes.(i)

let costs node = (Machine.config node.nd_machine).Machine.costs
let cpu node = Machine.cpu node.nd_machine
let consume node t = Cpu.consume (cpu node) t
let home cl obj = cl.nodes.(obj.ob_home)

let nm cl (node : node) = cl.c_nm.(node.nd_id)

let span_enter cl w phase =
  match w.w_span with
  | None -> ()
  | Some sp -> Span.enter sp phase ~at:(Engine.now cl.eng)

(* The span served by the calling process, if it is an invocation
   process (callable from anywhere; outside a process there is none). *)
let current_span cl =
  match Engine.self () with
  | pid -> Hashtbl.find_opt cl.c_span_ctx (Engine.Pid.to_int pid)
  | exception Invalid_argument _ -> None

let next_seq node = Idgen.next node.nd_seq

let new_request_id node =
  { Message.origin = node.nd_id; seq = next_seq node }

let add_pending node seq p = Hashtbl.replace node.nd_pending seq p

let take_pending node seq =
  match Hashtbl.find_opt node.nd_pending seq with
  | None -> None
  | Some p ->
    Hashtbl.remove node.nd_pending seq;
    Some p

let deadline_of ?timeout eng =
  Option.map (fun d -> Time.add (Engine.now eng) d) timeout

let remaining eng = function
  | None -> None
  | Some dl ->
    let now = Engine.now eng in
    Some (if Time.(dl > now) then Time.diff dl now else Time.zero)

let spawn_kproc cl node ~name f =
  let pid = Engine.spawn cl.eng ~name f in
  Engine.set_daemon cl.eng pid;
  node.nd_kprocs <- pid :: node.nd_kprocs;
  if List.length node.nd_kprocs > 256 then
    node.nd_kprocs <-
      List.filter (fun p -> Engine.alive cl.eng p) node.nd_kprocs;
  pid

let jrecord cl node ?ctx kind =
  Journal.record node.nd_journal ~at:(Engine.now cl.eng) ?ctx kind

(* Journal the send and derive the envelope context: the message's
   parent is the send event itself, and its trace is the caller's (or a
   fresh trace rooted at the send when the caller has none). *)
let send_ctx cl node ?ctx msg ~dst =
  let s = jrecord cl node ?ctx (Journal.Send { msg = Message.describe msg; dst }) in
  match ctx with
  | Some c -> Tracectx.with_parent c ~parent:s
  | None -> Tracectx.root s

let send_msg ?ctx cl node ~dst msg =
  if node.nd_up && dst <> node.nd_id then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:(Some dst) in
    Transport.send node.nd_tp ~dst (Message.traced ~ctx msg)
  end

(* Urgent unicast: flushes any coalescing batch queued for [dst] ahead
   of itself, so a cancellation never rides behind — or worse, inside
   the same wire transfer as — the very work it retracts. *)
let send_msg_now ?ctx cl node ~dst msg =
  if node.nd_up && dst <> node.nd_id then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:(Some dst) in
    Transport.send_now node.nd_tp ~dst (Message.traced ~ctx msg)
  end

let bcast_msg ?ctx cl node msg =
  if node.nd_up then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:None in
    Transport.broadcast node.nd_tp (Message.traced ~ctx msg)
  end

(* ---- Hedge telemetry (see {!hedge_state}) ---- *)

let hedge_observe cl rtt =
  match cl.c_hedge with
  | None -> ()
  | Some hs ->
    let s = float_of_int (Time.to_ns rtt) /. 1e9 in
    let n = Array.length latency_buckets in
    let rec idx i =
      if i >= n || s <= latency_buckets.(i) then i else idx (i + 1)
    in
    let i = idx 0 in
    if i = n then hs.hs_cum_over <- hs.hs_cum_over + 1
    else hs.hs_cum.(i) <- hs.hs_cum.(i) + 1

let hedge_close_tick hs =
  let n = Array.length hs.hs_cum in
  let deltas = Array.make n 0 in
  for i = 0 to n - 1 do
    deltas.(i) <- hs.hs_cum.(i) - hs.hs_prev.(i);
    hs.hs_prev.(i) <- hs.hs_cum.(i)
  done;
  let overflow = hs.hs_cum_over - hs.hs_prev_over in
  hs.hs_prev_over <- hs.hs_cum_over;
  Window.Hist.push hs.hs_hist ~counts:deltas ~overflow

(* The wait after which a hedged retry fires, or [None] while the
   estimator has nothing to stand on.  An empty window estimates [nan]
   — hedging only starts once real round trips have been observed. *)
let hedge_threshold cl =
  match cl.c_hedge with
  | None -> None
  | Some hs ->
    let q = cl.opts.speculate.Api.sp_quantile in
    let v = Window.Hist.quantile_last hs.hs_hist hedge_ticks q in
    if Float.is_nan v || v <= 0.0 then None
    else Some (Time.ns (int_of_float (v *. 1e9)))

(* -------------------------------------------------------------------- *)
(* The sharded locate directory.

   A consistent-hash ring ({!Directory}) assigns every name a registry
   shard: the node recording the name's current home and known replica
   sites.  A requester with no hint asks the shard with one unicast
   instead of broadcasting; every event that changes an object's home
   — creation, reincarnation, move (and through it the migration
   policy) — publishes a lease-stamped update to the shard.  The
   registry is a hint layer, never an authority: a stale entry is
   detected by the home's own nack (NACK-on-wrong-home, the replica
   cache's lazy-invalidation discipline), and every failure of the
   directory — miss, expired lease, dead shard, stale answer — falls
   back to the broadcast locate, which remains the ground truth and
   repairs the registry as a side effect. *)

(* How long a requester waits for the shard's answer before falling
   back to broadcast; matches the broadcast locate's first window, so
   a dead shard costs one window, not a retry ladder. *)
let dir_window = Time.ms 3

(* An entry this much older than its last publish is dropped rather
   than served: a home that died without handing the object anywhere
   republishes on reincarnation, and anything it failed to republish
   ages out instead of misdirecting requesters forever. *)
let dir_lease_ttl = Time.s 10

let dir_enabled cl = cl.opts.use_directory

(* The ring a given membership view resolves against.  Rings are
   cached per epoch at bump time, so every view a node can hold has
   its exact ring on hand; the boot ring backs epoch 0. *)
let ring_of cl view =
  if view <= 0 then cl.c_dir
  else
    match Hashtbl.find_opt cl.c_rings view with
    | Some r -> r
    | None -> cl.c_dir

(* The registry shard [viewer] talks to for [name]: the owner under
   the viewer's membership view, detouring past powered-off owners to
   the next live ring point.  Publisher and requester compute the same
   detour, so entries published while a shard is down are findable at
   its stand-in.  Before the detour, a crashed shard stayed pinned in
   the ring: every lookup of a name it owned burned the full directory
   window against a dead node and fell back to broadcast — one wasted
   round trip per touch, forever.  Minimal-remap makes the detour and
   reconfiguration agree: a decommissioned node's ring points are
   exactly the ones removed at the next epoch, so an old view skipping
   the dead owner lands on the same shard the new ring names. *)
let dir_shard cl (viewer : node) name =
  Directory.shard_skipping
    (ring_of cl viewer.nd_epoch)
    ~down:(fun id -> not cl.nodes.(id).nd_up)
    name

let dir_lease_valid cl lease =
  Time.to_ns (Engine.now cl.eng) - lease <= Time.to_ns dir_lease_ttl

(* Store an update at the shard.  Publish stamps are monotonic per
   name; a same-home update unions replica knowledge (capped like the
   clone set), a home change restates it. *)
let dir_store node ~target ~home ~replicas ~lease =
  match Name.Table.find_opt node.nd_dir target with
  | Some e when lease < e.de_lease -> ()
  | Some e ->
    if e.de_home = home then
      List.iter
        (fun s ->
          if (not (List.mem s e.de_replicas)) && List.length e.de_replicas < 8
          then e.de_replicas <- s :: e.de_replicas)
        replicas
    else begin
      e.de_home <- home;
      e.de_replicas <- replicas
    end;
    e.de_lease <- lease
  | None ->
    Name.Table.replace node.nd_dir target
      { de_home = home; de_replicas = replicas; de_lease = lease }

(* Publish [target]'s location to its registry shard, stamped with the
   current virtual time.  Fire-and-forget: a lost publish only costs
   the next requester a broadcast. *)
let dir_publish ?ctx cl node target ~home ~replicas =
  if dir_enabled cl && node.nd_up then begin
    let pub =
      jrecord cl node ?ctx
        (Journal.Dir_publish { target = Name.to_string target; home })
    in
    let ctx =
      match ctx with
      | Some c -> Tracectx.with_parent c ~parent:pub
      | None -> Tracectx.root pub
    in
    let lease = Time.to_ns (Engine.now cl.eng) in
    let shard = dir_shard cl node target in
    if shard = node.nd_id then dir_store node ~target ~home ~replicas ~lease
    else
      send_msg ~ctx cl node ~dst:shard
        (Message.Dir_put
           { req_id = new_request_id node; target; home; replicas; lease })
  end

(* NACK-on-wrong-home: the home the shard named refused to serve, so
   tell the shard.  The shard drops the entry only if it still names
   [stale_home] — a newer publish that already repaired it wins. *)
let dir_invalidate ?ctx cl node target ~stale_home =
  let shard = dir_shard cl node target in
  if shard = node.nd_id then (
    match Name.Table.find_opt node.nd_dir target with
    | Some e when e.de_home = stale_home -> Name.Table.remove node.nd_dir target
    | Some _ | None -> ())
  else
    send_msg ?ctx cl node ~dst:shard
      (Message.Dir_nack
         { req_id = new_request_id node; target; home = stale_home })

(* Ask [target]'s registry shard where it lives.  A [`Hit] is a hint,
   not an authority — it is trusted for exactly one send, and the
   home's nack falls back to broadcast.  [`Dead] is a shard that never
   answered (down, partitioned, or just slow): same fallback. *)
let dir_resolve ?ctx cl node target ~deadline =
  let shard = dir_shard cl node target in
  if shard = node.nd_id then (
    (* This node is the shard: consult the registry in place. *)
    match Name.Table.find_opt node.nd_dir target with
    | Some e when dir_lease_valid cl e.de_lease -> `Hit (e.de_home, e.de_replicas)
    | Some _ ->
      Name.Table.remove node.nd_dir target;
      Metrics.incr (nm cl node).m_dir_leases;
      Metrics.incr (nm cl node).m_dir_misses;
      `Miss
    | None ->
      Metrics.incr (nm cl node).m_dir_misses;
      `Miss)
  else begin
    let req_id = new_request_id node in
    let pr = Promise.create cl.eng in
    add_pending node req_id.Message.seq (P_dir pr);
    send_msg ?ctx cl node ~dst:shard
      (Message.Dir_get { req_id; target; reply_to = node.nd_id });
    let window =
      match remaining cl.eng deadline with
      | Some left when Time.(left < dir_window) -> left
      | Some _ | None -> dir_window
    in
    let answer = Promise.await ~timeout:window pr in
    Hashtbl.remove node.nd_pending req_id.Message.seq;
    match answer with
    | Some (Some (home, replicas)) -> `Hit (home, replicas)
    | Some None -> `Miss
    | None -> `Dead
  end

(* -------------------------------------------------------------------- *)
(* Forward declarations via references (the invocation path, object
   crash and activation are mutually recursive through ctx closures). *)

let ref_do_invoke :
    (t ->
    from:node_id ->
    ?timeout:Time.t ->
    ?retry:Api.retry ->
    ?parent:Span.t ->
    Capability.t ->
    op:string ->
    Value.t list ->
    Api.invoke_result)
    ref =
  ref (fun _ ~from:_ ?timeout:_ ?retry:_ ?parent:_ _ ~op:_ _ ->
      raise (Fatal "not initialised"))

let ref_do_crash : (t -> obj -> unit) ref =
  ref (fun _ _ -> raise (Fatal "not initialised"))

let ref_do_checkpoint : (t -> obj -> (unit, Error.t) result) ref =
  ref (fun _ _ -> raise (Fatal "not initialised"))

let ref_do_checkpoint_async : (t -> obj -> (unit, Error.t) result) ref =
  ref (fun _ _ -> raise (Fatal "not initialised"))

let ref_do_move : (t -> obj -> to_node:node_id -> self_inflight:bool -> (unit, Error.t) result) ref =
  ref (fun _ _ ~to_node:_ ~self_inflight:_ -> raise (Fatal "not initialised"))

let ref_do_replicate : (t -> obj -> to_node:node_id -> (unit, Error.t) result) ref =
  ref (fun _ _ ~to_node:_ -> raise (Fatal "not initialised"))

let ref_do_create :
    (t -> from:node_id -> node:node_id -> type_name:string -> Value.t ->
    (Capability.t, Error.t) result)
    ref =
  ref (fun _ ~from:_ ~node:_ ~type_name:_ _ -> raise (Fatal "not initialised"))

(* -------------------------------------------------------------------- *)
(* The kernel interface handed to type code *)

let make_ctx cl obj =
  let find_or_add tbl key create =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = create () in
      Hashtbl.replace tbl key v;
      v
  in
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
        else begin
          let node = home cl obj in
          let old_size = Value.size_bytes obj.ob_repr in
          let new_size = Value.size_bytes v in
          if new_size > old_size then begin
            match Memory.reserve node.nd_mem (new_size - old_size) with
            | Error `Out_of_memory -> Error Error.Out_of_memory
            | Ok () ->
              obj.ob_mem <- obj.ob_mem + (new_size - old_size);
              obj.ob_repr <- v;
              Ok ()
          end
          else begin
            Memory.release node.nd_mem (old_size - new_size);
            obj.ob_mem <- obj.ob_mem - (old_size - new_size);
            obj.ob_repr <- v;
            Ok ()
          end
        end);
    invoke =
      (fun ?timeout ?retry cap ~op args ->
        !ref_do_invoke cl ~from:obj.ob_home ?timeout ?retry cap ~op args);
    invoke_async =
      (fun ?timeout ?retry cap ~op args ->
        (* Capture the parent span here: the spawned process has its
           own pid, so the per-pid lookup would miss it. *)
        let parent = current_span cl in
        let pr = Promise.create cl.eng in
        let pid =
          Engine.spawn cl.eng ~name:"invoke_async" (fun () ->
              let r =
                !ref_do_invoke cl ~from:obj.ob_home ?timeout ?retry ?parent
                  cap ~op args
              in
              ignore (Promise.fill pr r))
        in
        Engine.set_daemon cl.eng pid;
        pr);
    create_object =
      (fun ~type_name ?node init ->
        let target = Option.value ~default:obj.ob_home node in
        !ref_do_create cl ~from:obj.ob_home ~node:target ~type_name init);
    checkpoint = (fun () -> !ref_do_checkpoint cl obj);
    checkpoint_async = (fun () -> !ref_do_checkpoint_async cl obj);
    set_reliability =
      (fun r ->
        match Reliability.validate r ~node_count:(Array.length cl.nodes) with
        | Error e -> Error (Error.Bad_arguments e)
        | Ok () ->
          obj.ob_reliability <- r;
          Ok ());
    crash = (fun () -> !ref_do_crash cl obj);
    move_to =
      (fun n ->
        if n < 0 || n >= Array.length cl.nodes then
          Error (Error.Move_refused "no such node")
        else !ref_do_move cl obj ~to_node:n ~self_inflight:true);
    freeze = (fun () -> obj.ob_frozen <- true);
    replicate_to = (fun n -> !ref_do_replicate cl obj ~to_node:n);
    semaphore =
      (fun name ~init ->
        find_or_add obj.ob_sems name (fun () ->
            Semaphore.create cl.eng ~init));
    port =
      (fun name ->
        find_or_add obj.ob_ports name (fun () -> Mailbox.create cl.eng));
    spawn_subprocess =
      (fun f ->
        let pid =
          Engine.spawn cl.eng
            ~name:(Name.to_string obj.ob_name ^ ".sub")
            f
        in
        Engine.set_daemon cl.eng pid;
        obj.ob_proc_pids <- pid :: obj.ob_proc_pids);
  }

(* -------------------------------------------------------------------- *)
(* Delivering replies *)

let resolve_inv_pending cl node ~src seq outcome =
  match Hashtbl.find_opt node.nd_pending seq with
  | Some (P_invoke pr) ->
    Hashtbl.remove node.nd_pending seq;
    ignore (Promise.fill pr outcome)
  | Some (P_clone cs) -> (
    (* First real result wins the fan-out.  A nack is one site's
       refusal, not an answer — only unanimity resolves the race. *)
    match outcome with
    | Inv_result _ ->
      Hashtbl.remove node.nd_pending seq;
      ignore (Promise.fill cs.cp_pr (outcome, src))
    | Inv_nacked ->
      cs.cp_nacks <- cs.cp_nacks + 1;
      if cs.cp_nacks >= cs.cp_count then begin
        Hashtbl.remove node.nd_pending seq;
        ignore (Promise.fill cs.cp_pr (outcome, src))
      end)
  | Some (P_locate _ | P_create _ | P_ack _ | P_cache _ | P_dir _) ->
    raise (Fatal "pending kind mismatch for invocation reply")
  | None -> (
    (* Late reply after the requester gave up (or after a faster clone
       already won): the operation may have executed, but nobody is
       listening — the paper's orphan. *)
    match outcome with
    | Inv_result _ -> Metrics.incr (nm cl node).m_orphans
    | Inv_nacked -> ())

let deliver_reply ?ctx cl obj route result =
  let node = home cl obj in
  match route with
  | Reply_local pr -> ignore (Promise.fill pr result)
  | Reply_remote { requester; inv_id } ->
    if requester = node.nd_id then
      (* The object moved to the requester's node mid-request. *)
      resolve_inv_pending cl node ~src:node.nd_id inv_id.Message.seq
        (Inv_result (result, obj.ob_frozen))
    else
      send_msg ?ctx cl node ~dst:requester
        (Message.Inv_reply { inv_id; result; frozen_hint = obj.ob_frozen })

let fail_work cl obj w error =
  span_enter cl w Span.Reply;
  deliver_reply ?ctx:w.w_ctx cl obj w.w_route (Error error)

(* -------------------------------------------------------------------- *)
(* The coordinator: dispatching invocations inside an object *)

let class_state obj class_name =
  let running =
    match Hashtbl.find_opt obj.ob_class_running class_name with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.replace obj.ob_class_running class_name r;
      r
  in
  let queue =
    match Hashtbl.find_opt obj.ob_class_queue class_name with
    | Some q -> q
    | None ->
      let q = Fifo.create () in
      Hashtbl.replace obj.ob_class_queue class_name q;
      q
  in
  (running, queue)

(* Retraction point: the moment queued work would become an invocation
   process is the last chance for a cancellation to matter.  Local work
   is never speculative; remote work transitions its idempotence entry
   to Started here — or is dropped, if a cancel got there first. *)
let work_retracted node w =
  match w.w_route with
  | Reply_local _ -> false
  | Reply_remote { inv_id; _ } -> (
    match Dedup.start node.nd_recent inv_id with
    | `Run -> false
    | `Retracted -> true)

let rec start_invocation cl obj spec w =
  let node = home cl obj in
  if work_retracted node w then begin
    Metrics.incr (nm cl node).m_retracted;
    (* Dropped unexecuted; give the slot to the next queued work. *)
    let _, queue = class_state obj spec.Opclass.class_name in
    match Fifo.pop queue with
    | Some next -> start_invocation cl obj spec next
    | None -> ()
  end
  else start_invocation_admitted cl obj spec w

and start_invocation_admitted cl obj spec w =
  let node = home cl obj in
  let running, _ = class_state obj spec.Opclass.class_name in
  incr running;
  obj.ob_running_total <- obj.ob_running_total + 1;
  (* Creating the invocation process is the 432's expensive step. *)
  consume node (costs node).Costs.process_create_cpu;
  let op =
    match Typemgr.find_operation obj.ob_type w.w_op with
    | Some op -> op
    | None -> raise (Fatal "dispatched an unknown operation")
  in
  let pid =
    Engine.spawn cl.eng
      ~name:(Printf.sprintf "%s.%s" (Name.to_string obj.ob_name) w.w_op)
      (fun () ->
        let self = Engine.self () in
        Fun.protect
          ~finally:(fun () -> finish_invocation cl obj spec self)
          (fun () ->
            (* Profiling: mark the instant execution actually begins —
               the gap back to the triggering receive (or stall) is
               queue residency — and re-parent the work's causal chain
               through the mark so the reply extends it. *)
            (if cl.opts.use_profiling then
               match w.w_ctx with
               | Some c ->
                 let ws =
                   jrecord cl node ~ctx:c (Journal.Work_start { op = w.w_op })
                 in
                 w.w_ctx <- Some (Tracectx.with_parent c ~parent:ws)
               | None -> ());
            Hashtbl.replace obj.ob_inflight
              (Engine.Pid.to_int self)
              w;
            (match w.w_span with
            | Some sp ->
              Span.enter sp Span.Execute ~at:(Engine.now cl.eng);
              Hashtbl.replace cl.c_span_ctx (Engine.Pid.to_int self) sp
            | None -> ());
            let ctx = make_ctx cl obj in
            let result =
              try op.Typemgr.op_handler ctx w.w_args with
              | Engine.Killed as e -> raise e
              | Engine.Stalled_waiting as e -> raise e
              | exn -> Error (Error.User_error (Printexc.to_string exn))
            in
            Hashtbl.remove obj.ob_inflight (Engine.Pid.to_int self);
            span_enter cl w Span.Reply;
            deliver_reply ?ctx:w.w_ctx cl obj w.w_route result))
  in
  obj.ob_proc_pids <- pid :: obj.ob_proc_pids

and finish_invocation cl obj spec self =
  Hashtbl.remove obj.ob_inflight (Engine.Pid.to_int self);
  Hashtbl.remove cl.c_span_ctx (Engine.Pid.to_int self);
  let running, queue = class_state obj spec.Opclass.class_name in
  decr running;
  obj.ob_running_total <- obj.ob_running_total - 1;
  Condition.broadcast obj.ob_drained;
  match obj.ob_status with
  | Running -> (
    match Fifo.pop queue with
    | Some next -> start_invocation cl obj spec next
    | None -> ())
  | Draining | Dead -> ()

(* Validation and class admission for one incoming work item. *)
let coordinator_admit cl obj w =
  let node = home cl obj in
  span_enter cl w Span.Dispatch;
  Metrics.incr (nm cl node).m_dispatch;
  consume node (costs node).Costs.invoke_dispatch_cpu;
  match obj.ob_status with
  | Dead -> fail_work cl obj w Error.Object_crashed
  | Draining ->
    (* Profiling: the request is about to sit behind a draining
       object; mark the stall (and re-parent through it) so the wait
       until reactivation is attributed to drain, not plain queueing. *)
    (if cl.opts.use_profiling then
       match w.w_ctx with
       | Some c ->
         let ds =
           jrecord cl node ~ctx:c
             (Journal.Drain_stall { target = Name.to_string obj.ob_name })
         in
         w.w_ctx <- Some (Tracectx.with_parent c ~parent:ds)
       | None -> ());
    Fifo.push_exn obj.ob_stash w
  | Running -> (
    match Typemgr.find_operation obj.ob_type w.w_op with
    | None -> fail_work cl obj w (Error.No_such_operation w.w_op)
    | Some op ->
      if not (Rights.subset op.Typemgr.required_rights w.w_presented) then
        fail_work cl obj w (Error.Rights_violation w.w_op)
      else if obj.ob_frozen && op.Typemgr.mutates then
        fail_work cl obj w Error.Frozen_immutable
      else begin
        let spec = Opclass.class_of (Typemgr.classes obj.ob_type) ~op:w.w_op in
        let running, queue = class_state obj spec.Opclass.class_name in
        if !running < spec.Opclass.limit then start_invocation cl obj spec w
        else Fifo.push_exn queue w
      end)

let coordinator_loop cl obj () =
  let rec loop () =
    match Mailbox.recv obj.ob_queue with
    | None -> loop ()
    | Some w ->
      coordinator_admit cl obj w;
      loop ()
  in
  loop ()

let spawn_coordinator cl obj =
  let pid =
    Engine.spawn cl.eng
      ~name:("coord:" ^ Name.to_string obj.ob_name)
      (coordinator_loop cl obj)
  in
  Engine.set_daemon cl.eng pid;
  obj.ob_coordinator <- Some pid

let spawn_behaviours cl obj =
  if not obj.ob_is_replica then
    List.iter
      (fun b ->
        let pid =
          Engine.spawn cl.eng
            ~name:
              (Printf.sprintf "%s!%s" (Name.to_string obj.ob_name)
                 b.Typemgr.b_name)
            (fun () ->
              let ctx = make_ctx cl obj in
              b.Typemgr.b_body ctx)
        in
        Engine.set_daemon cl.eng pid;
        obj.ob_behaviour_pids <- pid :: obj.ob_behaviour_pids)
      (Typemgr.behaviours obj.ob_type)

(* -------------------------------------------------------------------- *)
(* Memory and type-code loading *)

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

(* -------------------------------------------------------------------- *)
(* Object construction (shared by create / activate / replicate) *)

let build_obj cl ~name ~tm ~repr ~frozen ~reliability ~home ~is_replica ~mem =
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
    ob_class_running = Hashtbl.create 4;
    ob_class_queue = Hashtbl.create 4;
    ob_inflight = Hashtbl.create 4;
    ob_running_total = 0;
    ob_drained = Condition.create cl.eng;
    ob_coordinator = None;
    ob_behaviour_pids = [];
    ob_proc_pids = [];
    ob_sems = Hashtbl.create 4;
    ob_ports = Hashtbl.create 4;
    ob_rng = Splitmix.split cl.c_rng;
    ob_mem = mem;
    ob_ckpt_sites = [];
    ob_ckpt_version = 0;
    ob_ckpt_base = None;
    ob_ckpt_acked = Hashtbl.create 4;
    ob_ckpt_inflight = false;
    ob_ckpt_queued = false;
    ob_ckpt_idle = Condition.create cl.eng;
  }

(* Create a brand-new object on [node].  Blocking. *)
let do_create_local cl node type_name init =
  if not node.nd_up then Error Error.Node_down
  else
    match Hashtbl.find_opt cl.types type_name with
    | None -> Error (Error.Bad_arguments ("unknown type " ^ type_name))
    | Some tm -> (
      match load_type_code node tm with
      | Error e -> Error e
      | Ok () -> (
        let footprint = object_footprint tm init in
        match Memory.reserve node.nd_mem footprint with
        | Error `Out_of_memory -> Error Error.Out_of_memory
        | Ok () ->
          consume node (costs node).Costs.process_create_cpu;
          let name =
            Name.make ~birth_node:node.nd_id ~serial:(next_seq node)
          in
          let obj =
            build_obj cl ~name ~tm ~repr:init ~frozen:false
              ~reliability:Reliability.Local ~home:node.nd_id
              ~is_replica:false ~mem:footprint
          in
          spawn_coordinator cl obj;
          spawn_behaviours cl obj;
          Name.Table.replace node.nd_active name obj;
          dir_publish cl node name ~home:node.nd_id ~replicas:[];
          Ok (Capability.make name Rights.all)))

(* Reincarnate a passive object from its snapshot on [node].  Blocking.
   Concurrent activations of the same object on one node coalesce. *)
let activate cl node name =
  match Name.Table.find_opt node.nd_active name with
  | Some obj -> Ok obj
  | None -> (
    match Name.Table.find_opt node.nd_activating name with
    | Some pr -> (
      match Promise.await pr with
      | Some r -> r
      | None -> raise (Fatal "activation promise has no timeout"))
    | None -> (
      match Name.Table.find_opt node.nd_store name with
      | None -> Error Error.No_such_object
      | Some _ when not node.nd_disk_ok ->
        (* The snapshot exists but cannot be read back. *)
        Error Error.Disk_failed
      | Some snap -> (
        let pr = Promise.create cl.eng in
        Name.Table.replace node.nd_activating name pr;
        let finish r =
          Name.Table.remove node.nd_activating name;
          ignore (Promise.fill pr r);
          r
        in
        match Hashtbl.find_opt cl.types snap.ss_type with
        | None ->
          finish (Error (Error.Bad_arguments ("unknown type " ^ snap.ss_type)))
        | Some tm -> (
          match load_type_code node tm with
          | Error e -> finish (Error e)
          | Ok () -> (
            let footprint = object_footprint tm snap.ss_repr in
            match Memory.reserve node.nd_mem footprint with
            | Error `Out_of_memory -> finish (Error Error.Out_of_memory)
            | Ok () ->
              (* Read the long-term representation from disk. *)
              Disk.read (Machine.disk node.nd_machine)
                ~bytes:(Value.size_bytes snap.ss_repr);
              consume node (costs node).Costs.activation_fixed_cpu;
              let obj =
                build_obj cl ~name ~tm ~repr:snap.ss_repr
                  ~frozen:snap.ss_frozen ~reliability:snap.ss_reliability
                  ~home:node.nd_id ~is_replica:false ~mem:footprint
              in
              obj.ob_ckpt_sites <-
                Reliability.checksites snap.ss_reliability ~home:node.nd_id;
              obj.ob_ckpt_version <- snap.ss_version;
              obj.ob_ckpt_base <- Some (snap.ss_version, snap.ss_repr);
              (* Seed the acked table optimistically: checksites are
                 usually at the version we just restored.  A site that
                 is actually behind nacks its first delta, which falls
                 back to a full write and repairs the entry. *)
              List.iter
                (fun site ->
                  Hashtbl.replace obj.ob_ckpt_acked site snap.ss_version)
                obj.ob_ckpt_sites;
              snap.ss_passive <- false;
              let actx =
                Tracectx.root
                  (jrecord cl node
                     (Journal.Activate
                        {
                          target = Name.to_string name;
                          version = snap.ss_version;
                        }))
              in
              (* Tell sibling checksites the object lives again. *)
              List.iter
                (fun site ->
                  if site <> node.nd_id then
                    send_msg ~ctx:actx cl node ~dst:site
                      (Message.Ckpt_mark
                         {
                           target = name;
                           passive = false;
                           version = snap.ss_version;
                         }))
                obj.ob_ckpt_sites;
              (* The reincarnation condition handler runs before any
                 invocation is dispatched. *)
              (match Typemgr.reincarnate tm with
              | None -> ()
              | Some handler -> handler (make_ctx cl obj));
              if obj.ob_status = Dead then
                finish (Error Error.Object_crashed)
              else begin
                spawn_coordinator cl obj;
                spawn_behaviours cl obj;
                Name.Table.replace node.nd_active name obj;
                (* Reincarnation is a home change the shard must hear
                   about, or it keeps naming the dead home. *)
                dir_publish ~ctx:actx cl node name ~home:node.nd_id
                  ~replicas:[];
                Metrics.incr (nm cl node).m_recoveries;
                finish (Ok obj)
              end)))))

(* -------------------------------------------------------------------- *)
(* Checkpointing, crash, reincarnation *)

(* Returns whether the snapshot reached stable storage; a failed disk
   accepts nothing (and writes no partial state). *)
let write_snapshot cl node ~target ~type_name ~repr ~version ~reliability
    ~frozen ~passive =
  if not node.nd_disk_ok then false
  else begin
    Metrics.incr (nm cl node).m_ckpts;
    Metrics.add (nm cl node).m_ckpt_bytes (Value.size_bytes repr);
    Disk.write (Machine.disk node.nd_machine) ~bytes:(Value.size_bytes repr);
    (match Name.Table.find_opt node.nd_store target with
    | Some snap ->
      snap.ss_repr <- repr;
      snap.ss_version <- version;
      snap.ss_reliability <- reliability;
      snap.ss_frozen <- frozen;
      snap.ss_passive <- passive
    | None ->
      Name.Table.replace node.nd_store target
        {
          ss_type = type_name;
          ss_repr = repr;
          ss_version = version;
          ss_reliability = reliability;
          ss_frozen = frozen;
          ss_passive = passive;
        });
    true
  end

(* Apply a delta checkpoint against the stored snapshot.  Refusal is
   the nack that makes the sender fall back to a full write: disk
   failed, no snapshot to diff against, or the stored version is not
   the delta's base. *)
let apply_delta_snapshot cl node ~target ~base_version ~version ~delta
    ~reliability ~frozen =
  if not node.nd_disk_ok then false
  else
    match Name.Table.find_opt node.nd_store target with
    | None -> false
    | Some snap when snap.ss_version <> base_version -> false
    | Some snap -> (
      match Delta.apply delta ~base:snap.ss_repr with
      | Error _ -> false
      | Ok repr ->
        let bytes = Delta.size_bytes delta in
        Metrics.incr (nm cl node).m_ckpts;
        Metrics.add (nm cl node).m_ckpt_bytes bytes;
        Disk.write (Machine.disk node.nd_machine) ~bytes;
        snap.ss_repr <- repr;
        snap.ss_version <- version;
        snap.ss_reliability <- reliability;
        snap.ss_frozen <- frozen;
        snap.ss_passive <- false;
        true)

(* One checkpoint round: stamp a fresh version and write [repr] to
   every checksite — as a delta where the site is known to hold the
   current diff base, as a full representation otherwise.  All writes
   (the local disk one included) race one shared acknowledgement
   deadline instead of paying one [ack_timeout] per site. *)
let checkpoint_round cl obj ~repr =
  if obj.ob_status = Dead then Error Error.Object_crashed
  else begin
    let node = home cl obj in
    let metrics = nm cl node in
    consume node (costs node).Costs.checkpoint_fixed_cpu;
    obj.ob_ckpt_version <- obj.ob_ckpt_version + 1;
    let version = obj.ob_ckpt_version in
    let ctx =
      Tracectx.root
        (jrecord cl node
           (Journal.Ckpt_round
              { target = Name.to_string obj.ob_name; version }))
    in
    let type_name = Typemgr.name obj.ob_type in
    (* A checksite that has left the membership (decommissioned, not
       merely crashed) will never ack: drop it from the write set
       rather than stalling every round on a permanently dark mirror.
       Crashed members keep their write — the shared deadline covers
       transient outages. *)
    let sites =
      Reliability.checksites obj.ob_reliability ~home:node.nd_id
      |> List.filter (fun s -> s = node.nd_id || List.mem s cl.c_members)
    in
    let deadline = deadline_of ~timeout:ack_timeout cl.eng in
    let delta =
      if not cl.opts.use_ckpt_delta then None
      else
        match obj.ob_ckpt_base with
        | None -> None
        | Some (bv, base) ->
          (* Finding the dirty chunks is a read-only sweep of the
             representation. *)
          consume node
            (Costs.delta_scan_cost (costs node)
               ~bytes:(Value.size_bytes repr));
          Some (bv, Delta.diff ~base ~target:repr)
    in
    let site_at site v = Hashtbl.find_opt obj.ob_ckpt_acked site = Some v in
    let send_full site =
      let req_id = new_request_id node in
      let pr = Promise.create cl.eng in
      add_pending node req_id.Message.seq (P_ack pr);
      Metrics.add metrics.m_ckpt_full_bytes (Value.size_bytes repr);
      send_msg ~ctx cl node ~dst:site
        (Message.Ckpt_write
           {
             req_id;
             target = obj.ob_name;
             type_name;
             repr;
             version;
             reliability = obj.ob_reliability;
             frozen = obj.ob_frozen;
             reply_to = node.nd_id;
           });
      (req_id, pr)
    in
    let send_delta site ~base_version d =
      let req_id = new_request_id node in
      let pr = Promise.create cl.eng in
      add_pending node req_id.Message.seq (P_ack pr);
      Metrics.add metrics.m_ckpt_delta_bytes (Delta.size_bytes d);
      send_msg ~ctx cl node ~dst:site
        (Message.Ckpt_delta
           {
             req_id;
             target = obj.ob_name;
             type_name;
             delta = d;
             base_version;
             version;
             reliability = obj.ob_reliability;
             frozen = obj.ob_frozen;
             reply_to = node.nd_id;
           });
      (req_id, pr)
    in
    (* Launch every remote write first so they overlap each other and
       the local disk write. *)
    let remote_acks =
      List.filter_map
        (fun site ->
          if site = node.nd_id then None
          else
            match delta with
            | Some (bv, d) when site_at site bv ->
              let req_id, pr = send_delta site ~base_version:bv d in
              Some (site, req_id, pr, true)
            | _ ->
              let req_id, pr = send_full site in
              Some (site, req_id, pr, false))
        sites
    in
    let write_local_full () =
      Metrics.add metrics.m_ckpt_full_bytes (Value.size_bytes repr);
      write_snapshot cl node ~target:obj.ob_name ~type_name ~repr ~version
        ~reliability:obj.ob_reliability ~frozen:obj.ob_frozen ~passive:false
    in
    let write_local () =
      match delta with
      | Some (bv, d) when site_at node.nd_id bv ->
        if
          apply_delta_snapshot cl node ~target:obj.ob_name ~base_version:bv
            ~version ~delta:d ~reliability:obj.ob_reliability
            ~frozen:obj.ob_frozen
        then begin
          Metrics.add metrics.m_ckpt_delta_bytes (Delta.size_bytes d);
          true
        end
        else begin
          (* The local base is gone or stale: same fallback as a
             remote nack. *)
          Metrics.incr metrics.m_ckpt_fallbacks;
          write_local_full ()
        end
      | _ -> write_local_full ()
    in
    let local_in = List.mem node.nd_id sites in
    let local_ok = local_in && write_local () in
    let local_failed = local_in && not local_ok in
    (* Await the remote acknowledgements against the shared deadline;
       a nacked delta re-sends the full representation, still under
       the same deadline. *)
    let rec await_ack site req_id pr was_delta =
      match Promise.await ?timeout:(remaining cl.eng deadline) pr with
      | Some true -> true
      | Some false when was_delta ->
        Hashtbl.remove node.nd_pending req_id.Message.seq;
        Metrics.incr metrics.m_ckpt_fallbacks;
        let req_id', pr' = send_full site in
        await_ack site req_id' pr' false
      | Some false | None ->
        Hashtbl.remove node.nd_pending req_id.Message.seq;
        false
    in
    let ok_sites, failed =
      List.fold_left
        (fun (oks, failed) (site, req_id, pr, was_delta) ->
          if await_ack site req_id pr was_delta then (site :: oks, failed)
          else (oks, site :: failed))
        ( (if local_ok then [ node.nd_id ] else []),
          if local_failed then [ node.nd_id ] else [] )
        remote_acks
    in
    List.iter
      (fun site -> Hashtbl.replace obj.ob_ckpt_acked site version)
      ok_sites;
    List.iter (fun site -> Hashtbl.remove obj.ob_ckpt_acked site) failed;
    (* Remove snapshots at sites no longer in the checksite set. *)
    List.iter
      (fun old_site ->
        if not (List.mem old_site sites) then begin
          Hashtbl.remove obj.ob_ckpt_acked old_site;
          if old_site = node.nd_id then
            Name.Table.remove node.nd_store obj.ob_name
          else
            send_msg ~ctx cl node ~dst:old_site
              (Message.Ckpt_delete { target = obj.ob_name })
        end)
      obj.ob_ckpt_sites;
    obj.ob_ckpt_sites <- List.rev ok_sites;
    (* This round's representation is the next round's diff base. *)
    obj.ob_ckpt_base <- Some (version, repr);
    match failed with
    | [] -> Ok ()
    | _ :: _ ->
      if local_failed then Error Error.Disk_failed else Error Error.Node_down
  end

(* Checkpoint rounds for one object are serialised: a second request
   while one is in flight waits its turn (sync) or coalesces into a
   single follow-up round (async). *)
let acquire_ckpt_slot obj =
  while obj.ob_ckpt_inflight do
    ignore (Condition.await ~timeout:ack_timeout obj.ob_ckpt_idle)
  done;
  obj.ob_ckpt_inflight <- true

let release_ckpt_slot obj =
  obj.ob_ckpt_inflight <- false;
  Condition.broadcast obj.ob_ckpt_idle

let do_checkpoint cl obj =
  if obj.ob_is_replica then
    Error (Error.Bad_arguments "replicas do not checkpoint")
  else if obj.ob_status = Dead then Error Error.Object_crashed
  else begin
    acquire_ckpt_slot obj;
    Fun.protect
      ~finally:(fun () -> release_ckpt_slot obj)
      (fun () -> checkpoint_round cl obj ~repr:obj.ob_repr)
  end

(* Start a checkpoint and return immediately.  The round snapshots the
   representation at call time — values are immutable, so capturing
   the reference is a free copy-on-write — and runs in a kernel
   process.  [Ok ()] means launched (or coalesced), not succeeded. *)
let do_checkpoint_async cl obj =
  if obj.ob_is_replica then
    Error (Error.Bad_arguments "replicas do not checkpoint")
  else if obj.ob_status = Dead then Error Error.Object_crashed
  else begin
    let node = home cl obj in
    if obj.ob_ckpt_inflight then begin
      obj.ob_ckpt_queued <- true;
      Metrics.incr (nm cl node).m_ckpt_coalesced;
      Ok ()
    end
    else begin
      obj.ob_ckpt_inflight <- true;
      node.nd_ckpt_async <- node.nd_ckpt_async + 1;
      let repr = obj.ob_repr in
      ignore
        (spawn_kproc cl node
           ~name:("k:ckpt_async:" ^ Name.to_string obj.ob_name)
           (fun () ->
             Fun.protect
               ~finally:(fun () ->
                 node.nd_ckpt_async <- node.nd_ckpt_async - 1;
                 release_ckpt_slot obj)
               (fun () ->
                 let rec rounds repr =
                   ignore (checkpoint_round cl obj ~repr);
                   if obj.ob_ckpt_queued && obj.ob_status <> Dead then begin
                     obj.ob_ckpt_queued <- false;
                     rounds obj.ob_repr
                   end
                 in
                 rounds repr)));
      Ok ()
    end
  end

(* Collect every request the object is holding, in admission order. *)
let outstanding_works obj =
  let inflight = Hashtbl.fold (fun _ w acc -> w :: acc) obj.ob_inflight [] in
  let queued =
    Hashtbl.fold (fun _ q acc -> Fifo.to_list q @ acc) obj.ob_class_queue []
  in
  let stashed = Fifo.to_list obj.ob_stash in
  let buffered =
    let rec drain acc =
      match Mailbox.try_recv obj.ob_queue with
      | Some w -> drain (w :: acc)
      | None -> List.rev acc
    in
    drain []
  in
  inflight @ queued @ stashed @ buffered

let kill_object_procs cl obj =
  let self = [] in
  let pids =
    (match obj.ob_coordinator with Some p -> [ p ] | None -> [])
    @ obj.ob_behaviour_pids @ obj.ob_proc_pids
  in
  obj.ob_coordinator <- None;
  obj.ob_behaviour_pids <- [];
  obj.ob_proc_pids <- [];
  (* If the current process is one of the object's own (crash called
     from a handler or behaviour), kill it last so the rest of the
     dismantling completes. *)
  let here =
    match Engine.self () with
    | pid -> Some pid
    | exception Invalid_argument _ -> None
  in
  let mine, others =
    match here with
    | None -> (self, pids)
    | Some me ->
      List.partition (fun p -> Engine.Pid.equal p me) pids
  in
  List.iter (fun p -> Engine.kill cl.eng p) others;
  List.iter (fun p -> Engine.kill cl.eng p) mine

let unregister cl obj =
  let node = home cl obj in
  if obj.ob_is_replica then Name.Table.remove node.nd_replicas obj.ob_name
  else Name.Table.remove node.nd_active obj.ob_name;
  Memory.release node.nd_mem obj.ob_mem;
  obj.ob_mem <- 0

(* The crash primitive: destroy all active state.  If the object has a
   checkpoint it becomes passive; otherwise it is gone for good. *)
let do_crash cl obj =
  if obj.ob_status <> Dead then begin
    obj.ob_status <- Dead;
    let node = home cl obj in
    let works = outstanding_works obj in
    List.iter (fun w -> fail_work cl obj w Error.Object_crashed) works;
    (* Flip the stored snapshots to passive-authoritative. *)
    List.iter
      (fun site ->
        if site = node.nd_id then begin
          match Name.Table.find_opt node.nd_store obj.ob_name with
          | Some snap -> snap.ss_passive <- true
          | None -> ()
        end
        else
          send_msg cl node ~dst:site
            (Message.Ckpt_mark
               {
                 target = obj.ob_name;
                 passive = true;
                 version = obj.ob_ckpt_version;
               }))
      obj.ob_ckpt_sites;
    unregister cl obj;
    kill_object_procs cl obj
  end

(* -------------------------------------------------------------------- *)
(* Mobility: move, freeze, replicate *)

let do_move cl obj ~to_node ~self_inflight =
  let source = home cl obj in
  if obj.ob_is_replica then Error (Error.Move_refused "replicas cannot move")
  else if to_node = obj.ob_home then Ok ()
  else if obj.ob_status <> Running then
    Error (Error.Move_refused "object is not quiescent")
  else begin
    let target = node_of cl to_node in
    obj.ob_status <- Draining;
    let floor = if self_inflight then 1 else 0 in
    let rec wait_drain () =
      if obj.ob_running_total > floor then begin
        ignore (Condition.await obj.ob_drained);
        wait_drain ()
      end
    in
    wait_drain ();
    (* Ship the representation; the Move_transfer message carries the
       object's long-term state across the wire. *)
    let transfer_id = new_request_id source in
    let pr = Promise.create cl.eng in
    add_pending source transfer_id.Message.seq (P_ack pr);
    send_msg cl source ~dst:to_node
      (Message.Move_transfer
         {
           target = obj.ob_name;
           type_name = Typemgr.name obj.ob_type;
           repr = obj.ob_repr;
           frozen = obj.ob_frozen;
           reliability = obj.ob_reliability;
           from_node = source.nd_id;
           transfer_id;
         });
    let accepted = Promise.await ~timeout:ack_timeout pr in
    Hashtbl.remove source.nd_pending transfer_id.Message.seq;
    (* Whatever the outcome, requests stashed while draining must be
       re-admitted once the object is running again. *)
    let resume_and_flush () =
      obj.ob_status <- Running;
      let rec flush () =
        match Fifo.pop obj.ob_stash with
        | Some w ->
          let ok = Mailbox.try_send obj.ob_queue w in
          assert ok;
          flush ()
        | None -> ()
      in
      flush ()
    in
    match accepted with
    | Some true ->
      (* Behaviours stop at the source and restart at the target. *)
      let behaviours = obj.ob_behaviour_pids in
      obj.ob_behaviour_pids <- [];
      List.iter (fun p -> Engine.kill cl.eng p) behaviours;
      Name.Table.remove source.nd_active obj.ob_name;
      Memory.release source.nd_mem obj.ob_mem;
      if cl.opts.use_forwarding then
        Name.Table.replace source.nd_forward obj.ob_name to_node;
      obj.ob_home <- to_node;
      obj.ob_mem <- object_footprint obj.ob_type obj.ob_repr;
      Name.Table.replace target.nd_active obj.ob_name obj;
      spawn_behaviours cl obj;
      resume_and_flush ();
      (* Every mover — the external [move], the migration policy's
         [balance_once], checkpoint-driven migration — publishes the
         new home here, so the registry never needs per-caller
         discipline.  Without this a balanced-away object costs every
         directory user a nack round before the fallback repairs it. *)
      dir_publish cl source obj.ob_name ~home:to_node ~replicas:[];
      Ok ()
    | Some false ->
      resume_and_flush ();
      Error Error.Out_of_memory
    | None ->
      resume_and_flush ();
      Error Error.Node_down
  end

let do_replicate cl obj ~to_node =
  let node = home cl obj in
  if not obj.ob_frozen then
    Error (Error.Move_refused "only frozen objects can be replicated")
  else if to_node = obj.ob_home then Ok ()
  else begin
    let transfer_id = new_request_id node in
    let pr = Promise.create cl.eng in
    add_pending node transfer_id.Message.seq (P_ack pr);
    send_msg cl node ~dst:to_node
      (Message.Replica_install
         {
           target = obj.ob_name;
           type_name = Typemgr.name obj.ob_type;
           repr = obj.ob_repr;
           transfer_id;
           from_node = node.nd_id;
         });
    let accepted = Promise.await ~timeout:ack_timeout pr in
    Hashtbl.remove node.nd_pending transfer_id.Message.seq;
    match accepted with
    | Some true ->
      (* Same-home publish: the shard unions [to_node] into the
         entry's replica set, seeding requesters' clone sets. *)
      dir_publish cl node obj.ob_name ~home:obj.ob_home
        ~replicas:[ to_node ];
      Ok ()
    | Some false -> Error Error.Out_of_memory
    | None -> Error Error.Node_down
  end

(* -------------------------------------------------------------------- *)
(* The frozen-replica cache.

   A remote reply can carry a [frozen_hint]: the serving node saw the
   target immutable.  The requester then fetches the representation
   once, in the background, and installs it in [nd_cache]; every later
   invocation from this node dispatches locally.  The entry is a hint
   in Lampson's sense: rights still validate on every dispatch, and
   staleness is handled by invalidation — [unfreeze] (the version
   bump) broadcasts on the existing nack path, which drops cached
   copies everywhere, and [Destroy_notice] / node crashes clear them
   too.  The cache never answers locates or remote requests: it is
   private to its node, so it can be discarded at any time. *)

let drop_cached cl node target =
  match Name.Table.find_opt node.nd_cache target with
  | None -> ()
  | Some obj ->
    obj.ob_status <- Dead;
    let works = outstanding_works obj in
    List.iter (fun w -> fail_work cl obj w Error.No_such_object) works;
    Name.Table.remove node.nd_cache target;
    Memory.release node.nd_mem obj.ob_mem;
    obj.ob_mem <- 0;
    Metrics.incr (nm cl node).m_cache_inval;
    kill_object_procs cl obj

let cache_epoch node name =
  match Name.Table.find_opt node.nd_cache_epoch name with
  | Some e -> e
  | None -> 0

(* Full invalidation: purge any installed copy and poison fetches in
   flight (their payload predates the bump, see [cache_fetch]). *)
let invalidate_cached cl node target =
  if Name.Table.mem node.nd_cache target || Name.Table.mem node.nd_fetching target
  then begin
    let epoch = cache_epoch node target + 1 in
    Name.Table.replace node.nd_cache_epoch target epoch;
    ignore
      (jrecord cl node
         (Journal.Cache_invalidate { target = Name.to_string target; epoch }))
  end;
  drop_cached cl node target

let install_cached cl node name ~type_name ~repr =
  if
    node.nd_up
    && (not (Name.Table.mem node.nd_cache name))
    && (not (Name.Table.mem node.nd_active name))
    && not (Name.Table.mem node.nd_replicas name)
  then
    match Hashtbl.find_opt cl.types type_name with
    | None -> ()
    | Some tm -> (
      match load_type_code node tm with
      | Error _ -> ()
      | Ok () -> (
        let footprint = object_footprint tm repr in
        match Memory.reserve node.nd_mem footprint with
        | Error `Out_of_memory -> ()
        | Ok () ->
          let obj =
            build_obj cl ~name ~tm ~repr ~frozen:true
              ~reliability:Reliability.Local ~home:node.nd_id
              ~is_replica:true ~mem:footprint
          in
          spawn_coordinator cl obj;
          Name.Table.replace node.nd_cache name obj;
          ignore
            (jrecord cl node
               (Journal.Cache_install
                  { target = Name.to_string name; epoch = cache_epoch node name }))))

(* Fetch [name]'s representation from [from_node] in the background.
   Failures are silent: the cache is an optimisation, and the next
   frozen-hinted reply will try again. *)
let cache_fetch ?ctx cl node name ~from_node =
  if
    cl.opts.use_replica_cache && node.nd_up && from_node <> node.nd_id
    && (not (Name.Table.mem node.nd_cache name))
    && (not (Name.Table.mem node.nd_fetching name))
    && (not (Name.Table.mem node.nd_active name))
    && not (Name.Table.mem node.nd_replicas name)
  then begin
    Name.Table.replace node.nd_fetching name ();
    ignore
      (spawn_kproc cl node ~name:"k:cache_fetch" (fun () ->
           Fun.protect
             ~finally:(fun () -> Name.Table.remove node.nd_fetching name)
             (fun () ->
               let epoch = cache_epoch node name in
               let req_id = new_request_id node in
               let pr = Promise.create cl.eng in
               add_pending node req_id.Message.seq (P_cache pr);
               send_msg ?ctx cl node ~dst:from_node
                 (Message.Cache_fetch
                    { req_id; target = name; reply_to = node.nd_id });
               let payload = Promise.await ~timeout:ack_timeout pr in
               Hashtbl.remove node.nd_pending req_id.Message.seq;
               match payload with
               | Some (Some (type_name, repr)) ->
                 (* A version bump that raced the reply (e.g. the
                    unfreeze invalidation overtaking a delayed
                    [Cache_data]) makes the payload pre-thaw garbage:
                    discard it rather than install a stale replica. *)
                 if cache_epoch node name = epoch then
                   install_cached cl node name ~type_name ~repr
               | Some None | None -> ())))
  end

(* -------------------------------------------------------------------- *)
(* Location and the invocation path *)

let enqueue_work cl obj w =
  if obj.ob_status = Dead then fail_work cl obj w Error.Object_crashed
  else begin
    cl.n_inv <- cl.n_inv + 1;
    span_enter cl w Span.Queue;
    let ok = Mailbox.try_send obj.ob_queue w in
    assert ok
  end

(* Broadcast locate; prefer an actively-hosting node, else a replica,
   else a passive checksite. *)
let locate_once ?ctx cl node name ~window =
  let req_id = new_request_id node in
  let st =
    { loc_candidates = []; loc_active = Promise.create cl.eng }
  in
  add_pending node req_id.Message.seq (P_locate st);
  Metrics.incr (nm cl node).m_locates;
  (* Locates count toward object heat too: an object that is hard to
     find generates locate traffic even when invocations stall. *)
  (match cl.c_health with
  | Some hp -> Topk.add hp.hp_topk.(node.nd_id) (Name.to_string name)
  | None -> ());
  bcast_msg ?ctx cl node
    (Message.Locate_request { req_id; target = name; reply_to = node.nd_id });
  let early = Promise.await ~timeout:window st.loc_active in
  Hashtbl.remove node.nd_pending req_id.Message.seq;
  match early with
  | Some hit -> Some hit
  | None ->
    (* The broadcast does not loop back, but this node may itself be a
       checksite: its own snapshot competes on version like any other
       (the home can crash without marking mirrors passive, so
       passivity of the local copy proves nothing either way). *)
    (if node.nd_disk_ok then
       match Name.Table.find_opt node.nd_store name with
       | Some snap ->
         st.loc_candidates <-
           (node.nd_id, Message.Res_passive, snap.ss_version)
           :: st.loc_candidates
       | None -> ());
    (* Among same-residence answers, take the highest snapshot version
       (the earliest responder on a tie).  Replicas all report version
       0, so for them this is plain arrival order; for passive sites
       it is what makes reincarnation prefer the newest state. *)
    let pick res =
      List.fold_left
        (fun best (n, r, v) ->
          if r <> res then best
          else
            match best with
            | Some (_, bv) when bv >= v -> best
            | _ -> Some (n, v))
        None
        (List.rev st.loc_candidates)
      |> Option.map (fun (n, _) -> (n, res))
    in
    (match pick Message.Res_replica with
    | Some hit -> Some hit
    | None -> pick Message.Res_passive)

(* Retries widen the reply window geometrically: under a burst of
   traffic the first window routinely expires while replies sit in
   collision backoff.  Windows are clamped to the caller's deadline so
   a tight invocation timeout is honoured even during location. *)
let rec locate_backoff ?ctx cl node name ~attempts ~window ~deadline =
  if attempts <= 0 then `Nowhere
  else
    let window =
      match remaining cl.eng deadline with
      | None -> window
      | Some left -> if Time.(left < window) then left else window
    in
    if Time.is_zero window then `Deadline
    else
      match locate_once ?ctx cl node name ~window with
      | Some hit -> `Found hit
      | None ->
        locate_backoff ?ctx cl node name ~attempts:(attempts - 1)
          ~window:(Time.scale window 3) ~deadline

(* Concurrent locates of the same name from one node share a single
   broadcast (and its answer). *)
let locate ?ctx cl node name ~deadline =
  if not cl.opts.coalesce_locates then
    locate_backoff ?ctx cl node name ~attempts:locate_retries
      ~window:locate_window ~deadline
  else
  match Name.Table.find_opt node.nd_locating name with
  | Some pr -> (
    (* Wait for the initiator's answer, but no longer than our own
       deadline allows. *)
    match Promise.await ?timeout:(remaining cl.eng deadline) pr with
    | Some (Some hit) -> `Found hit
    | Some None -> `Nowhere
    | None -> `Deadline)
  | None ->
    let pr = Promise.create cl.eng in
    Name.Table.replace node.nd_locating name pr;
    Fun.protect
      ~finally:(fun () ->
        Name.Table.remove node.nd_locating name;
        ignore (Promise.fill pr None))
      (fun () ->
        match
          locate_backoff ?ctx cl node name ~attempts:locate_retries
            ~window:locate_window ~deadline
        with
        | `Found hit ->
          ignore (Promise.fill pr (Some hit));
          `Found hit
        | (`Nowhere | `Deadline) as r -> r)

(* A frozen-hinted reply teaches us one more site able to serve reads
   of this name: remember it as a clone candidate.  The set is a hint —
   a stale member just nacks its clone, which evicts it.  Hedge-only
   mode learns too: a hedge that can re-send to an alternate replica
   dodges a degraded home, where re-sending to the same site only
   helps against loss. *)
let speculating cl =
  cl.opts.speculate.Api.sp_clone || cl.opts.speculate.Api.sp_hedge

let learn_clone_site cl node name site =
  if speculating cl && site <> node.nd_id then begin
    let prev =
      Option.value ~default:[] (Name.Table.find_opt node.nd_clone_sites name)
    in
    if (not (List.mem site prev)) && List.length prev < 8 then
      Name.Table.replace node.nd_clone_sites name (site :: prev)
  end

let forget_clone_site node name site =
  match Name.Table.find_opt node.nd_clone_sites name with
  | None -> ()
  | Some sites -> (
    match List.filter (fun s -> s <> site) sites with
    | [] -> Name.Table.remove node.nd_clone_sites name
    | rest -> Name.Table.replace node.nd_clone_sites name rest)

(* The home answers a locate before any replica does, and a plain read
   never leaves the hinted route at all, so a requester on the happy
   path would never discover the replica set.  The first time a node
   learns a target is frozen (with cloning on), it broadcasts one
   fire-and-forget locate: no pending entry resolves it, but every
   [Res_replica] answer teaches the clone set in [on_message].  The
   table entry — possibly still empty — doubles as the asked-once
   marker; [Cache_invalidate] and [forget_object] drop it, re-arming
   discovery after the frozen epoch changes.

   With the locate directory on, the discovery broadcast is skipped
   entirely: the registry answer already carries the shard's known
   replica set (every [`Hit] feeds [learn_clone_site]), so fanning out
   a broadcast here would re-introduce exactly the per-name broadcast
   the directory exists to avoid — cloned reads were costing E23-scale
   locate traffic whenever both flags were enabled. *)
let discover_clone_sites ?ctx cl node name =
  if
    speculating cl
    && (not (dir_enabled cl))
    && not (Name.Table.mem node.nd_clone_sites name)
  then begin
    Name.Table.replace node.nd_clone_sites name [];
    let req_id = new_request_id node in
    Metrics.incr (nm cl node).m_locates;
    (match cl.c_health with
    | Some hp -> Topk.add hp.hp_topk.(node.nd_id) (Name.to_string name)
    | None -> ());
    bcast_msg ?ctx cl node
      (Message.Locate_request { req_id; target = name; reply_to = node.nd_id })
  end

(* What a reply means for the requester's local bookkeeping: pay the
   unmarshalling cost, note the frozen hint, teach the clone set. *)
let absorb_reply ?ctx cl node ~from_node cap r frozen_hint =
  (match r with
  | Ok vs ->
    consume node (costs node).Costs.invoke_reply_cpu;
    consume node
      (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes vs))
  | Error _ -> ());
  if frozen_hint then begin
    discover_clone_sites ?ctx cl node (Capability.name cap);
    learn_clone_site cl node (Capability.name cap) from_node;
    if
      cl.opts.use_replica_cache
      && not (Name.Table.mem node.nd_cache (Capability.name cap))
    then begin
      (* The target is immutable and we paid the round trip anyway:
         count the miss and fetch a local replica in the background. *)
      Metrics.incr (nm cl node).m_cache_miss;
      cache_fetch ?ctx cl node (Capability.name cap) ~from_node
    end
  end

(* Send the request to [dst] — and speculatively to every site in
   [clones] — and wait for the outcome.  A cloned request shares one
   id across its whole fan-out: the first real result wins and every
   other site is sent an urgent [Cancel].  A non-cloned request that
   outruns the windowed latency quantile is hedged: the same request
   is re-issued (urgently, same id) without abandoning the original,
   and the serving side's idempotence table drops whichever copy
   arrives second. *)
let send_request_and_wait ?ctx cl node ~dst ~clones ~deadline ~may_activate
    ~span cap ~op args =
  let inv_id = new_request_id node in
  let name = Capability.name cap in
  let request ~to_site =
    Message.Inv_request
      {
        inv_id;
        target = name;
        op;
        args;
        presented = Capability.rights cap;
        reply_to = node.nd_id;
        hops = 0;
        (* Only the primary may reincarnate a passive copy: a clone
           waking its own activation at every site would multiply the
           object. *)
        may_activate = may_activate && to_site = dst;
        span;
      }
  in
  cl.n_remote <- cl.n_remote + 1;
  Metrics.incr (nm cl node).m_remote;
  (match span with
  | Some sp ->
    Span.note_remote sp;
    (* Transport covers marshalling on both ends, MAC contention and
       forwarding hops; it ends when the target enqueues the work. *)
    Span.enter sp Span.Transport ~at:(Engine.now cl.eng)
  | None -> ());
  let t0 = Engine.now cl.eng in
  let finish ~from_node outcome =
    match outcome with
    | None ->
      (* The node we trusted never answered: distrust the cached
         location so the next attempt re-locates instead of sending
         into the void again. *)
      Name.Table.remove node.nd_hints name;
      Name.Table.remove node.nd_forward name;
      `Result (Error Error.Timeout)
    | Some (Inv_result (r, frozen_hint)) ->
      hedge_observe cl (Time.diff (Engine.now cl.eng) t0);
      absorb_reply ?ctx cl node ~from_node cap r frozen_hint;
      `Result r
    | Some Inv_nacked -> `Nacked
  in
  if clones = [] then begin
    let pr = Promise.create cl.eng in
    add_pending node inv_id.Message.seq (P_invoke pr);
    consume node
      (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes args));
    send_msg ?ctx cl node ~dst (request ~to_site:dst);
    let hedge_after =
      if not cl.opts.speculate.Api.sp_hedge then None
      else
        match (hedge_threshold cl, remaining cl.eng deadline) with
        | None, _ -> None
        | Some h, Some left when Time.(left <= h) -> None
        | (Some _ as h), _ -> h
    in
    let outcome =
      match hedge_after with
      | None -> Promise.await ?timeout:(remaining cl.eng deadline) pr
      | Some h -> (
        match Promise.await ~timeout:h pr with
        | Some _ as o -> o
        | None ->
          (* The attempt has outrun the recent latency quantile.
             Prefer an alternative site known to serve this name;
             otherwise re-send to the same one (a second chance for a
             dropped or delayed transfer). *)
          let hedge_dst =
            match
              Reliability.fanout ~primary:dst
                ~candidates:
                  (List.filter
                     (fun s -> s <> node.nd_id)
                     (Option.value ~default:[]
                        (Name.Table.find_opt node.nd_clone_sites name)))
                ~max_extra:1
            with
            | alt :: _ -> alt
            | [] -> dst
          in
          Metrics.incr (nm cl node).m_hedges;
          ignore (jrecord cl node ?ctx (Journal.Hedge { op; dst = hedge_dst }));
          consume node
            (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes args));
          send_msg_now ?ctx cl node ~dst:hedge_dst (request ~to_site:hedge_dst);
          Promise.await ?timeout:(remaining cl.eng deadline) pr)
    in
    Hashtbl.remove node.nd_pending inv_id.Message.seq;
    finish ~from_node:dst outcome
  end
  else begin
    (* Speculative fan-out: primary first, then the clone sites. *)
    let sites = dst :: clones in
    let count = List.length sites in
    let pr = Promise.create cl.eng in
    add_pending node inv_id.Message.seq
      (P_clone { cp_pr = pr; cp_count = count; cp_nacks = 0 });
    Metrics.incr (nm cl node).m_clone_fanouts;
    ignore (jrecord cl node ?ctx (Journal.Clone_fanout { op; sites = count }));
    List.iter
      (fun site ->
        consume node
          (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes args));
        send_msg ?ctx cl node ~dst:site (request ~to_site:site))
      sites;
    let outcome = Promise.await ?timeout:(remaining cl.eng deadline) pr in
    Hashtbl.remove node.nd_pending inv_id.Message.seq;
    let winner =
      match outcome with
      | Some (Inv_result _, won) -> Some won
      | Some (Inv_nacked, _) | None -> None
    in
    (match winner with
    | Some won ->
      ignore (jrecord cl node ?ctx (Journal.Clone_win { op; winner = won }))
    | None -> ());
    (* Retract the losers — all sites, when nobody won.  Urgent sends,
       so a cancellation is never batched behind the work it cancels. *)
    List.iter
      (fun site ->
        if Some site <> winner then begin
          Metrics.incr (nm cl node).m_clone_cancels;
          ignore (jrecord cl node ?ctx (Journal.Clone_cancel { dst = site }));
          send_msg_now ?ctx cl node ~dst:site
            (Message.Cancel { inv_id; target = name })
        end)
      sites;
    finish
      ~from_node:(Option.value ~default:dst winner)
      (Option.map fst outcome)
  end

let dispatch_local_and_wait ?ctx cl obj ~deadline ~span cap ~op args =
  let pr = Promise.create cl.eng in
  enqueue_work cl obj
    {
      w_op = op;
      w_args = args;
      w_presented = Capability.rights cap;
      w_route = Reply_local pr;
      w_span = span;
      w_ctx = ctx;
    };
  match Promise.await ?timeout:(remaining cl.eng deadline) pr with
  | Some r -> r
  | None -> Error Error.Timeout

let do_invoke cl ~from ?timeout ?(retry = Api.no_retry) ?parent cap ~op args =
  let node = node_of cl from in
  if not node.nd_up then Error Error.Node_down
  else begin
    let name = Capability.name cap in
    let tname = Name.to_string name in
    Metrics.incr (nm cl node).m_inv;
    (* Feed the origin node's hot-object sketch; the rendered name is
       shared with the span and the journal event below, so the health
       plane adds no allocation of its own here. *)
    (match cl.c_health with
    | Some hp -> Topk.add hp.hp_topk.(from) tname
    | None -> ());
    let parent =
      match parent with Some _ as p -> p | None -> current_span cl
    in
    let sp =
      Span.start cl.c_spans ?parent ~op ~target:tname ~origin:from
        ~at:(Engine.now cl.eng) ()
    in
    let span = Some sp in
    (* The invocation's root journal event: every send, retry and
       downstream handler event hangs off this trace id. *)
    let ictx =
      Tracectx.root
        (jrecord cl node (Journal.Inv_begin { op; target = tname }))
    in
    consume node (costs node).Costs.invoke_request_cpu;
    (* Journalled at the moment an attempt abandons the directory for
       this name: invariant 6 requires every Dir_hit/Dir_miss to end in
       Inv_end or one of these. *)
    let dir_fallback () =
      Metrics.incr (nm cl node).m_dir_fallbacks;
      ignore
        (jrecord cl node ~ctx:ictx (Journal.Dir_fallback { target = tname }))
    in
    let rec attempt ~deadline ~nack_budget ~use_dir =
      (* A nack retry re-opens the Locate phase. *)
      Span.enter sp Span.Locate ~at:(Engine.now cl.eng);
      consume node (costs node).Costs.locate_lookup_cpu;
      (* Local fast paths: active object, replica, or authoritative
         passive snapshot on this very node. *)
      match Name.Table.find_opt node.nd_active name with
      | Some obj -> dispatch_local_and_wait ~ctx:ictx cl obj ~deadline ~span cap ~op args
      | None -> (
        match Name.Table.find_opt node.nd_replicas name with
        | Some obj ->
          dispatch_local_and_wait ~ctx:ictx cl obj ~deadline ~span cap ~op args
        | None -> (
        match
          if cl.opts.use_replica_cache then
            Name.Table.find_opt node.nd_cache name
          else None
        with
        | Some obj ->
          Metrics.incr (nm cl node).m_cache_hit;
          dispatch_local_and_wait ~ctx:ictx cl obj ~deadline ~span cap ~op args
        | None -> (
          let local_passive =
            match Name.Table.find_opt node.nd_store name with
            | Some snap when snap.ss_passive -> true
            | Some _ | None -> false
          in
          if local_passive then
            match activate cl node name with
            | Ok obj ->
              dispatch_local_and_wait ~ctx:ictx cl obj ~deadline ~span cap ~op args
            | Error e -> Error e
          else begin
            (* Remote: follow a hint if we have one, else locate. *)
            let hinted =
              if not cl.opts.use_hint_cache then None
              else
                match Name.Table.find_opt node.nd_hints name with
                | Some h when h <> node.nd_id -> Some h
                | Some _ | None -> (
                  match Name.Table.find_opt node.nd_forward name with
                  | Some h when h <> node.nd_id -> Some h
                  | Some _ | None -> None)
            in
            (match hinted with
            | Some _ -> Metrics.incr (nm cl node).m_hint_hit
            | None -> Metrics.incr (nm cl node).m_hint_miss);
            (* The broadcast locate: the authoritative path, and the
               directory's fallback.  Finding the active home here
               repairs the registry for the next requester. *)
            let broadcast_locate () =
              match locate ~ctx:ictx cl node name ~deadline with
              | `Found (at_node, residence) when at_node <> node.nd_id ->
                if cl.opts.use_hint_cache then
                  Name.Table.replace node.nd_hints name at_node;
                if residence = Message.Res_active then
                  dir_publish ~ctx:ictx cl node name ~home:at_node
                    ~replicas:[];
                (* Choosing a passive site after a full quiet window
                   authorises that site to reincarnate. *)
                `Send (at_node, residence = Message.Res_passive, false)
              | `Found (_, Message.Res_passive) ->
                (* Our own snapshot is the newest surviving state:
                   the quiet window authorises reincarnating it
                   right here. *)
                `Activate
              | `Found (_, _) ->
                (* We were told the object is on this very node: it
                   must have just (re)activated here; retry the local
                   fast paths. *)
                `Retry
              | `Nowhere -> `Nowhere
              | `Deadline -> `Deadline
            in
            let dst =
              match hinted with
              | Some h -> `Send (h, false, false)
              | None ->
                if not (use_dir && dir_enabled cl) then broadcast_locate ()
                else (
                  match dir_resolve ~ctx:ictx cl node name ~deadline with
                  | `Hit (dhome, replicas) when dhome <> node.nd_id ->
                    Metrics.incr (nm cl node).m_dir_hits;
                    ignore
                      (jrecord cl node ~ctx:ictx
                         (Journal.Dir_hit { target = tname; home = dhome }));
                    List.iter (learn_clone_site cl node name) replicas;
                    (* A directory answer is a hint, never activation
                       authority: only a full broadcast quiet window
                       may authorise reincarnation. *)
                    `Send (dhome, false, true)
                  | `Hit _ ->
                    (* The registry names this very node, but every
                       local fast path already missed: stale
                       self-entry, fall back. *)
                    dir_fallback ();
                    broadcast_locate ()
                  | `Miss ->
                    ignore
                      (jrecord cl node ~ctx:ictx
                         (Journal.Dir_miss { target = tname }));
                    dir_fallback ();
                    broadcast_locate ()
                  | `Dead ->
                    dir_fallback ();
                    broadcast_locate ())
            in
            match dst with
            | `Nowhere -> Error Error.No_such_object
            | `Deadline -> Error Error.Timeout
            | `Activate -> (
              match activate cl node name with
              | Ok obj ->
                dispatch_local_and_wait ~ctx:ictx cl obj ~deadline ~span cap ~op args
              | Error e -> Error e)
            | `Retry ->
              if nack_budget <= 0 then Error Error.No_such_object
              else attempt ~deadline ~nack_budget:(nack_budget - 1) ~use_dir
            | `Send (dst, may_activate, via_dir) -> (
              (* Clone set: every other site known to serve reads of
                 this (frozen, replicated) name.  Empty for ordinary
                 objects, so the single-destination path is untouched. *)
              let clones =
                if not cl.opts.speculate.Api.sp_clone then []
                else
                  match Name.Table.find_opt node.nd_clone_sites name with
                  | None -> []
                  | Some sites ->
                    Reliability.fanout ~primary:dst
                      ~candidates:
                        (List.filter (fun s -> s <> node.nd_id) sites)
                      ~max_extra:(cl.opts.speculate.Api.sp_max_sites - 1)
              in
              match
                send_request_and_wait ~ctx:ictx cl node ~dst ~clones ~deadline
                  ~may_activate ~span cap ~op args
              with
              | `Result r -> r
              | `Nacked ->
                Metrics.incr (nm cl node).m_nacks;
                Name.Table.remove node.nd_hints name;
                Name.Table.remove node.nd_forward name;
                if via_dir then begin
                  (* The shard pointed at a node that cannot serve.
                     Lazily invalidate its entry (it drops it only if
                     it still names this home) and retry on the
                     broadcast path.  With the invalidation disarmed
                     (test scaffolding) the stale entry keeps winning
                     until the nack budget runs out — the regression
                     this fallback exists to prevent. *)
                  Metrics.incr (nm cl node).m_dir_nacks;
                  if cl.c_dir_nack_fallback then begin
                    dir_invalidate ~ctx:ictx cl node name ~stale_home:dst;
                    dir_fallback ()
                  end
                end;
                if nack_budget <= 0 then Error Error.No_such_object
                else
                  attempt ~deadline ~nack_budget:(nack_budget - 1)
                    ~use_dir:
                      (use_dir && not (via_dir && cl.c_dir_nack_fallback)))
          end)))
    in
    (* [?timeout] bounds each attempt; a timed-out attempt may be
       re-issued under the caller's retry policy after a capped
       exponential backoff.  Only Timeout retries — any other error is
       a definitive answer. *)
    let rec tries i =
      let deadline = deadline_of ?timeout cl.eng in
      match attempt ~deadline ~nack_budget:2 ~use_dir:(dir_enabled cl) with
      | Error Error.Timeout when i < retry.Api.r_max ->
        Metrics.incr (nm cl node).m_retries;
        ignore
          (jrecord cl node ~ctx:ictx (Journal.Retry { op; attempt = i + 1 }));
        Engine.delay (Api.backoff retry i);
        tries (i + 1)
      | r -> r
    in
    let r = tries 0 in
    let outcome =
      match r with Ok _ -> "ok" | Error e -> Error.to_string e
    in
    ignore (jrecord cl node ~ctx:ictx (Journal.Inv_end { op; outcome }));
    Span.finish sp ~outcome ~at:(Engine.now cl.eng);
    Metrics.observe_time cl.c_lat (Span.duration sp);
    (* Online profile feed: fold the finished span's phase times into
       the cluster-wide category counters the latency-share watchdogs
       read.  Coarser than the journal walk (a span cannot split wire
       from coalesce) but available every tick. *)
    (match cl.c_profile with
    | None -> ()
    | Some pc ->
      let ns p = Time.to_ns (Span.phase_time sp p) in
      Metrics.add pc.pc_directory (ns Span.Locate);
      Metrics.add pc.pc_wire (ns Span.Transport + ns Span.Reply);
      Metrics.add pc.pc_queue (ns Span.Queue + ns Span.Dispatch);
      Metrics.add pc.pc_service (ns Span.Execute);
      Metrics.add pc.pc_total (Time.to_ns (Span.duration sp)));
    r
  end

(* Create an object on a possibly-remote node. *)
let do_create cl ~from ~node:target ~type_name init =
  let origin = node_of cl from in
  if not origin.nd_up then Error Error.Node_down
  else if target = from then do_create_local cl origin type_name init
  else begin
    let tnode = node_of cl target in
    ignore tnode;
    let req_id = new_request_id origin in
    let pr = Promise.create cl.eng in
    add_pending origin req_id.Message.seq (P_create pr);
    consume origin
      (Costs.copy_cost (costs origin) ~bytes:(Value.size_bytes init));
    send_msg cl origin ~dst:target
      (Message.Create_request { req_id; type_name; init; reply_to = from });
    let r = Promise.await ~timeout:ack_timeout pr in
    Hashtbl.remove origin.nd_pending req_id.Message.seq;
    match r with None -> Error Error.Node_down | Some result -> result
  end

(* -------------------------------------------------------------------- *)
(* Destruction: erase one node's knowledge of an object, killing any
   local replica.  (The primary, if any, is dismantled by the
   destroyer before the notices go out.) *)

let forget_object cl node target =
  (match Name.Table.find_opt node.nd_replicas target with
  | Some replica ->
    replica.ob_status <- Dead;
    let works = outstanding_works replica in
    List.iter (fun w -> fail_work cl replica w Error.No_such_object) works;
    unregister cl replica;
    kill_object_procs cl replica
  | None -> ());
  invalidate_cached cl node target;
  Name.Table.remove node.nd_store target;
  Name.Table.remove node.nd_hints target;
  Name.Table.remove node.nd_forward target;
  Name.Table.remove node.nd_clone_sites target;
  (* The destroy notice reaches the registry shard like everyone else:
     its entry dies with the object. *)
  Name.Table.remove node.nd_dir target

(* -------------------------------------------------------------------- *)
(* Message handling *)

(* Deliver an error reply for a request handled at this node when no
   object record exists to route through. *)
let deliver_reply_at cl node route result =
  match route with
  | Reply_local pr -> ignore (Promise.fill pr result)
  | Reply_remote { requester; inv_id } ->
    if requester = node.nd_id then
      resolve_inv_pending cl node ~src:node.nd_id inv_id.Message.seq
        (Inv_result (result, false))
    else
      send_msg cl node ~dst:requester
        (Message.Inv_reply { inv_id; result; frozen_hint = false })

let handle_inv_request ?ctx cl node ~src:_ r =
  match r with
  | Message.Inv_request
      { inv_id; target; op; args; presented; reply_to; hops; may_activate;
        span }
    -> (
    let route = Reply_remote { requester = reply_to; inv_id } in
    let w =
      { w_op = op; w_args = args; w_presented = presented; w_route = route;
        w_span = span; w_ctx = ctx }
    in
    let nack () =
      send_msg ?ctx cl node ~dst:reply_to
        (Message.Inv_nack { inv_id; target })
    in
    (* Exactly-once gate: cloning, hedging and the fault injector's
       duplicate verdict all deliver one logical request more than
       once.  A request we have already queued, started or had
       cancelled is dropped silently — the first copy answers (or its
       cancellation already told the requester's bookkeeping the
       answer does not matter). *)
    let fresh =
      match Dedup.find node.nd_recent inv_id with
      | Some (Dedup.Queued | Dedup.Started | Dedup.Cancelled) ->
        Metrics.incr (nm cl node).m_dedup;
        false
      | None -> true
    in
    let admit obj =
      Dedup.note_queued node.nd_recent inv_id;
      consume node
        (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes args));
      enqueue_work cl obj w
    in
    if fresh then begin
    consume node (costs node).Costs.locate_lookup_cpu;
    match Name.Table.find_opt node.nd_active target with
    | Some obj -> admit obj
    | None -> (
      match Name.Table.find_opt node.nd_replicas target with
      | Some obj -> admit obj
      | None -> (
        let passive_here =
          match Name.Table.find_opt node.nd_store target with
          | Some snap -> snap.ss_passive || may_activate
          | None -> false
        in
        if passive_here then
          match activate cl node target with
          | Ok obj -> admit obj
          | Error Error.Disk_failed ->
            (* We cannot serve from a failed store; nack so the
               requester re-locates and finds a healthier checksite. *)
            nack ()
          | Error e -> deliver_reply_at cl node route (Error e)
        else begin
          let forward_to =
            match Name.Table.find_opt node.nd_forward target with
            | Some f -> Some f
            | None -> Name.Table.find_opt node.nd_hints target
          in
          match forward_to with
          | Some next when hops < max_hops && next <> node.nd_id ->
            send_msg ?ctx cl node ~dst:next
              (Message.Inv_request
                 {
                   inv_id;
                   target;
                   op;
                   args;
                   presented;
                   reply_to;
                   hops = hops + 1;
                   may_activate;
                   span;
                 });
            (* Repair the requester's knowledge of the new location. *)
            if reply_to <> node.nd_id then
              send_msg ?ctx cl node ~dst:reply_to
                (Message.Hint_update { target; at_node = next })
          | Some _ | None -> nack ()
        end))
    end)
  | _ -> raise (Fatal "handle_inv_request: not an invocation request")

let handle_locate_request ?ctx cl node req =
  match req with
  | Message.Locate_request { req_id; target; reply_to } ->
    let answer ?(version = 0) residence =
      send_msg ?ctx cl node ~dst:reply_to
        (Message.Locate_reply
           { req_id; target; at_node = node.nd_id; residence; version })
    in
    if Name.Table.mem node.nd_active target then answer Message.Res_active
    else if Name.Table.mem node.nd_replicas target then
      answer Message.Res_replica
    else if node.nd_disk_ok then (
      (* A failed disk cannot reincarnate: stay silent so the
         requester picks a checksite that can.  The answer carries the
         snapshot's version so the requester reincarnates from the
         newest surviving state, not the first responder. *)
      match Name.Table.find_opt node.nd_store target with
      | Some snap -> answer ~version:snap.ss_version Message.Res_passive
      | None -> ())
  | _ -> raise (Fatal "handle_locate_request: wrong message")

let on_message cl node ~src { Message.tr_ctx; tr_msg = msg } =
  if node.nd_up then begin
    (* Journal the arrival linked to the sender's Send event, then hand
       every follow-on send the same trace with this Recv as parent. *)
    let recv_id =
      jrecord cl node ?ctx:tr_ctx
        (Journal.Recv { msg = Message.describe msg; src })
    in
    let hctx =
      let trace =
        match tr_ctx with Some c -> Tracectx.trace c | None -> recv_id
      in
      Tracectx.make ~trace ~parent:recv_id
    in
    match msg with
    | Message.Inv_request _ ->
      ignore
        (spawn_kproc cl node ~name:"k:inv_req" (fun () ->
             handle_inv_request ~ctx:hctx cl node ~src msg))
    | Message.Inv_reply { inv_id; result; frozen_hint } ->
      (* Same origin discipline as the nack below: sequence numbers
         are node-local, so only a reply echoing one of OUR request
         ids may resolve pending state.  A foreign-origin reply —
         e.g. a cancelled clone's answer finally surfacing somewhere
         it was never addressed — must not resolve an unrelated
         request that happens to share the sequence number. *)
      if inv_id.Message.origin = node.nd_id then
        resolve_inv_pending cl node ~src inv_id.Message.seq
          (Inv_result (result, frozen_hint))
      else Metrics.incr (nm cl node).m_orphans
    | Message.Inv_nack { inv_id; target } ->
      (* Nack-after-crash: whatever routed us there is stale.  Purge
         the hint even when the pending entry already timed out, or a
         crashed-and-forgotten location would be re-trusted forever.
         The same evidence invalidates any cached frozen replica and
         evicts the nacking site from the clone set.
         Only a nack echoing one of OUR request ids may resolve
         pending state: sequence numbers are node-local, so a foreign
         origin's seq can collide with an unrelated in-flight request
         on this node. *)
      Name.Table.remove node.nd_hints target;
      Name.Table.remove node.nd_forward target;
      invalidate_cached cl node target;
      forget_clone_site node target src;
      if inv_id.Message.origin = node.nd_id then
        resolve_inv_pending cl node ~src inv_id.Message.seq Inv_nacked
    | Message.Cancel { inv_id; target = _ } -> (
      (* A requester withdrawing its clone (or its whole fan-out):
         queued work is dropped at dispatch, started work is left to
         finish — its reply lands in the requester's orphan
         accounting.  A cancel that overtook its own request (urgent
         sends bypass the coalescer) is remembered so the request is
         dropped on arrival. *)
      match Dedup.cancel node.nd_recent inv_id with
      | `Retracted | `Noted | `Too_late -> ())
    | Message.Hint_update { target; at_node } ->
      Name.Table.replace node.nd_hints target at_node
    | Message.Locate_request _ -> handle_locate_request ~ctx:hctx cl node msg
    | Message.Locate_reply { req_id; target; at_node; residence; version } -> (
      (* A replica answer teaches the clone set — even when the locate
         already resolved (the home usually answers first, and
         discovery broadcasts keep no pending entry at all): this site
         serves reads of the (frozen) name. *)
      if residence = Message.Res_replica then
        learn_clone_site cl node target at_node;
      match Hashtbl.find_opt node.nd_pending req_id.Message.seq with
      | Some (P_locate st) -> (
        match residence with
        | Message.Res_active ->
          ignore (Promise.fill st.loc_active (at_node, residence))
        | Message.Res_replica ->
          st.loc_candidates <-
            (at_node, residence, version) :: st.loc_candidates
        | Message.Res_passive ->
          st.loc_candidates <-
            (at_node, residence, version) :: st.loc_candidates)
      | Some _ | None -> ())
    | Message.Create_request { req_id; type_name; init; reply_to } ->
      ignore
        (spawn_kproc cl node ~name:"k:create" (fun () ->
             let result = do_create_local cl node type_name init in
             send_msg ~ctx:hctx cl node ~dst:reply_to
               (Message.Create_reply { req_id; result })))
    | Message.Create_reply { req_id; result } -> (
      match take_pending node req_id.Message.seq with
      | Some (P_create pr) -> ignore (Promise.fill pr result)
      | Some _ -> raise (Fatal "pending kind mismatch for create reply")
      | None -> ())
    | Message.Move_transfer
        { target; type_name; repr; frozen = _; reliability = _; from_node;
          transfer_id } ->
      ignore
        (spawn_kproc cl node ~name:"k:move_in" (fun () ->
             let accepted =
               match Hashtbl.find_opt cl.types type_name with
               | None -> false
               | Some tm -> (
                 match load_type_code node tm with
                 | Error _ -> false
                 | Ok () -> (
                   let footprint = object_footprint tm repr in
                   match Memory.reserve node.nd_mem footprint with
                   | Error `Out_of_memory -> false
                   | Ok () ->
                     consume node (costs node).Costs.activation_fixed_cpu;
                     true))
             in
             ignore target;
             send_msg ~ctx:hctx cl node ~dst:from_node
               (Message.Move_ack { transfer_id; accepted })))
    | Message.Move_ack { transfer_id; accepted } -> (
      match take_pending node transfer_id.Message.seq with
      | Some (P_ack pr) -> ignore (Promise.fill pr accepted)
      | Some _ -> raise (Fatal "pending kind mismatch for move ack")
      | None -> ())
    | Message.Ckpt_write
        { req_id; target; type_name; repr; version; reliability; frozen;
          reply_to } ->
      ignore
        (spawn_kproc cl node ~name:"k:ckpt" (fun () ->
             let ok =
               write_snapshot cl node ~target ~type_name ~repr ~version
                 ~reliability ~frozen ~passive:false
             in
             send_msg ~ctx:hctx cl node ~dst:reply_to
               (Message.Ckpt_ack { req_id; ok })))
    | Message.Ckpt_delta
        { req_id; target; type_name = _; delta; base_version; version;
          reliability; frozen; reply_to } ->
      ignore
        (spawn_kproc cl node ~name:"k:ckpt_delta" (fun () ->
             let ok =
               apply_delta_snapshot cl node ~target ~base_version ~version
                 ~delta ~reliability ~frozen
             in
             send_msg ~ctx:hctx cl node ~dst:reply_to
               (Message.Ckpt_ack { req_id; ok })))
    | Message.Ckpt_ack { req_id; ok } -> (
      match take_pending node req_id.Message.seq with
      | Some (P_ack pr) -> ignore (Promise.fill pr ok)
      | Some _ -> raise (Fatal "pending kind mismatch for ckpt ack")
      | None -> ())
    | Message.Ckpt_delete { target } -> Name.Table.remove node.nd_store target
    | Message.Ckpt_mark { target; passive; version } -> (
      (* A mark stamped below the stored snapshot's version is stale
         (reordered behind a later checkpoint): ignore it rather than
         flip the authority bit on newer state. *)
      match Name.Table.find_opt node.nd_store target with
      | Some snap when version >= snap.ss_version ->
        snap.ss_passive <- passive
      | Some _ | None -> ())
    | Message.Replica_install { target; type_name; repr; transfer_id; from_node }
      ->
      ignore
        (spawn_kproc cl node ~name:"k:replica" (fun () ->
             let accepted =
               match Hashtbl.find_opt cl.types type_name with
               | None -> false
               | Some tm -> (
                 match load_type_code node tm with
                 | Error _ -> false
                 | Ok () -> (
                   let footprint = object_footprint tm repr in
                   match Memory.reserve node.nd_mem footprint with
                   | Error `Out_of_memory -> false
                   | Ok () ->
                     if Name.Table.mem node.nd_replicas target then begin
                       (* Already replicated here; release the double
                          reservation and accept idempotently. *)
                       Memory.release node.nd_mem footprint;
                       true
                     end
                     else begin
                       let obj =
                         build_obj cl ~name:target ~tm ~repr ~frozen:true
                           ~reliability:Reliability.Local ~home:node.nd_id
                           ~is_replica:true ~mem:footprint
                       in
                       spawn_coordinator cl obj;
                       Name.Table.replace node.nd_replicas target obj;
                       true
                     end))
             in
             send_msg ~ctx:hctx cl node ~dst:from_node
               (Message.Replica_ack { transfer_id; accepted })))
    | Message.Replica_ack { transfer_id; accepted } -> (
      match take_pending node transfer_id.Message.seq with
      | Some (P_ack pr) -> ignore (Promise.fill pr accepted)
      | Some _ -> raise (Fatal "pending kind mismatch for replica ack")
      | None -> ())
    | Message.Destroy_notice { target } -> forget_object cl node target
    | Message.Cache_fetch { req_id; target; reply_to } ->
      (* Serve the frozen representation if we still hold one; [None]
         tells the requester its hint went stale and nothing is
         cached. *)
      let payload =
        match Name.Table.find_opt node.nd_active target with
        | Some obj when obj.ob_frozen && obj.ob_status = Running ->
          Some (Typemgr.name obj.ob_type, obj.ob_repr)
        | Some _ | None -> (
          match Name.Table.find_opt node.nd_replicas target with
          | Some obj when obj.ob_status = Running ->
            Some (Typemgr.name obj.ob_type, obj.ob_repr)
          | Some _ | None -> None)
      in
      send_msg ~ctx:hctx cl node ~dst:reply_to
        (Message.Cache_data { req_id; target; payload })
    | Message.Cache_data { req_id; target = _; payload } -> (
      match take_pending node req_id.Message.seq with
      | Some (P_cache pr) -> ignore (Promise.fill pr payload)
      | Some _ -> raise (Fatal "pending kind mismatch for cache data")
      | None -> ())
    | Message.Cache_invalidate { target } ->
      (* The version bump from unfreeze.  Purge location knowledge,
         the cached replica and the clone set (the object can mutate
         again, so speculative reads are over); carries no request id
         and never touches [nd_pending], so it cannot collide with an
         in-flight request. *)
      Name.Table.remove node.nd_hints target;
      Name.Table.remove node.nd_forward target;
      Name.Table.remove node.nd_clone_sites target;
      invalidate_cached cl node target
    | Message.Dir_put { req_id; target; home; replicas; lease } ->
      (* Our own request id coming back is the shard's positive reply
         to a [Dir_get]; anything else is a publish and this node is
         the shard.  The origin check is load-bearing: sequence
         numbers are node-local, so a foreign publish must never
         resolve an unrelated pending entry here. *)
      if req_id.Message.origin = node.nd_id then (
        match take_pending node req_id.Message.seq with
        | Some (P_dir pr) -> ignore (Promise.fill pr (Some (home, replicas)))
        | Some _ -> raise (Fatal "pending kind mismatch for dir reply")
        | None -> () (* answer outlived its window; the fallback ran *))
      else dir_store node ~target ~home ~replicas ~lease
    | Message.Dir_get { req_id; target; reply_to } -> (
      (* Serve the registry.  The reply echoes the requester's own
         request id, so it routes to the pending lookup and nothing
         else.  An expired entry is dropped, not served: better one
         broadcast than a misdirected send to a long-dead home. *)
      match Name.Table.find_opt node.nd_dir target with
      | Some e when dir_lease_valid cl e.de_lease ->
        send_msg ~ctx:hctx cl node ~dst:reply_to
          (Message.Dir_put
             {
               req_id;
               target;
               home = e.de_home;
               replicas = e.de_replicas;
               lease = e.de_lease;
             })
      | entry ->
        (match entry with
        | Some _ ->
          Name.Table.remove node.nd_dir target;
          Metrics.incr (nm cl node).m_dir_leases
        | None -> ());
        Metrics.incr (nm cl node).m_dir_misses;
        send_msg ~ctx:hctx cl node ~dst:reply_to
          (Message.Dir_nack { req_id; target; home = -1 }))
    | Message.Dir_nack { req_id; target; home } ->
      (* Same origin discipline as [Dir_put]: our own id is the
         shard's miss reply; a foreign id is a requester's lazy
         NACK-on-wrong-home invalidation, honoured only while the
         entry still names the home the requester found stale. *)
      if req_id.Message.origin = node.nd_id then (
        match take_pending node req_id.Message.seq with
        | Some (P_dir pr) -> ignore (Promise.fill pr None)
        | Some _ -> raise (Fatal "pending kind mismatch for dir nack")
        | None -> ())
      else (
        match Name.Table.find_opt node.nd_dir target with
        | Some e when e.de_home = home -> Name.Table.remove node.nd_dir target
        | Some _ | None -> ())
    | Message.Epoch_announce { epoch; members = _ } ->
      (* Adopt a newer membership view.  Epochs are totally ordered,
         so the highest one wins regardless of delivery order — a
         delayed or duplicated announce from a past reconfiguration is
         simply ignored.  The ring for the adopted epoch was cached
         cluster-side by the initiator; the member list on the wire is
         what a real kernel would rebuild it from. *)
      if epoch > node.nd_epoch then begin
        node.nd_epoch <- epoch;
        Metrics.incr (nm cl node).m_epoch_bumps;
        ignore (jrecord cl node ~ctx:hctx (Journal.Epoch_bump { epoch }))
      end
  end

(* -------------------------------------------------------------------- *)
(* Tying the recursive knot *)

let () = ref_do_invoke := do_invoke
let () = ref_do_crash := do_crash
let () = ref_do_checkpoint := do_checkpoint
let () = ref_do_checkpoint_async := do_checkpoint_async
let () = ref_do_move := do_move
let () = ref_do_replicate := do_replicate
let () = ref_do_create := do_create

(* -------------------------------------------------------------------- *)
(* Cluster construction and public operations *)

(* The paper's node abstraction (sec. 4.3): each node machine is itself
   reachable as an Eden object supplying resource information.  Node
   objects are kernel-resident: their code and structures live outside
   the object memory budget, and they are recreated under the same name
   when a machine restarts. *)
let node_type_for cl =
  let open Api in
  let ( let* ) = Result.bind in
  Typemgr.make_exn ~name:"eden_node" ~code_bytes:0 ~short_term_bytes:0
    [
      Typemgr.operation "info" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          let node = cl.nodes.(ctx.node_id ()) in
          reply
            [
              Value.Int (Machine.config node.nd_machine).Machine.gdps;
              Value.Int (Memory.capacity node.nd_mem);
              Value.Int (Memory.available node.nd_mem);
              Value.Int (Name.Table.length node.nd_active);
            ]);
      Typemgr.operation "ping" ~mutates:false (fun _ args ->
          let* () = no_args args in
          reply []);
    ]

let install_node_object cl node name =
  match Hashtbl.find_opt cl.types "eden_node" with
  | None -> raise (Fatal "node type not registered")
  | Some tm ->
    Hashtbl.replace node.nd_types_loaded "eden_node" ();
    let obj =
      build_obj cl ~name ~tm ~repr:Value.Unit ~frozen:false
        ~reliability:Reliability.Local ~home:node.nd_id ~is_replica:false
        ~mem:0
    in
    spawn_coordinator cl obj;
    Name.Table.replace node.nd_active name obj

(* Sampled instruments: read pre-existing component counters (engine,
   MAC layer, hardware) at snapshot time instead of threading the
   registry through those layers. *)
let register_collectors cl =
  let reg = cl.c_metrics in
  Metrics.register_counter_fn reg "sim.events" (fun () ->
      Engine.events_processed cl.eng);
  Metrics.register_counter_fn reg "sim.processes_spawned" (fun () ->
      Engine.processes_spawned cl.eng);
  Metrics.register_gauge_fn reg "sim.processes_live" (fun () ->
      float_of_int (Engine.live_processes cl.eng));
  Metrics.register_gauge_fn reg "sim.runnable" (fun () ->
      float_of_int (Engine.runnable_processes cl.eng));
  Metrics.register_counter_fn reg "net.bridge_forwards" (fun () ->
      Transport.bridge_forwards cl.c_lan);
  Metrics.register_counter_fn reg "net.coalesced_batches" (fun () ->
      Transport.coalesced_batches cl.c_lan);
  Metrics.register_counter_fn reg "net.coalesced_messages" (fun () ->
      Transport.coalesced_messages cl.c_lan);
  for seg = 0 to Transport.segment_count cl.c_lan - 1 do
    let labels = [ ("segment", string_of_int seg) ] in
    let c name field =
      Metrics.register_counter_fn reg ~labels name (fun () ->
          field (Transport.segment_counters cl.c_lan).(seg))
    in
    let open Eden_net in
    c "net.frames_sent" (fun k -> k.Lan.frames_sent);
    c "net.frames_broadcast" (fun k -> k.Lan.frames_broadcast);
    c "net.frames_delivered" (fun k -> k.Lan.frames_delivered);
    c "net.frames_dropped" (fun k -> k.Lan.frames_dropped);
    c "net.bytes_delivered" (fun k -> k.Lan.payload_bytes_delivered);
    c "net.collisions" (fun k -> k.Lan.collision_events);
    c "net.backoffs" (fun k -> k.Lan.backoffs)
  done;
  Array.iter
    (fun node ->
      let labels = [ ("node", string_of_int node.nd_id) ] in
      let g name f = Metrics.register_gauge_fn reg ~labels name f in
      let c name f = Metrics.register_counter_fn reg ~labels name f in
      let machine = node.nd_machine in
      g "hw.cpu_utilisation" (fun () ->
          let over = Engine.now cl.eng in
          if Time.is_zero over then 0.0
          else Cpu.utilisation (Machine.cpu machine) ~over);
      c "hw.cpu_jobs" (fun () -> Cpu.jobs_completed (Machine.cpu machine));
      g "hw.disk_utilisation" (fun () ->
          let over = Engine.now cl.eng in
          if Time.is_zero over then 0.0
          else Disk.utilisation (Machine.disk machine) ~over);
      c "hw.disk_reads" (fun () -> Disk.reads (Machine.disk machine));
      c "hw.disk_writes" (fun () -> Disk.writes (Machine.disk machine));
      c "hw.disk_bytes_read" (fun () ->
          Disk.bytes_read (Machine.disk machine));
      c "hw.disk_bytes_written" (fun () ->
          Disk.bytes_written (Machine.disk machine));
      g "eden.active_objects" (fun () ->
          float_of_int (Name.Table.length node.nd_active));
      g "eden.mem_available_bytes" (fun () ->
          float_of_int (Memory.available node.nd_mem));
      g "eden.ckpt.async_inflight" (fun () ->
          float_of_int node.nd_ckpt_async);
      (* Depth gauges for the health plane: the deepest coordinator
         mailbox on this node, requests awaiting replies, and what the
         transport is holding (coalescing queues, partial
         reassemblies). *)
      g "eden.queue_depth" (fun () ->
          float_of_int
            (Name.Table.fold
               (fun _ obj acc -> max acc (Mailbox.length obj.ob_queue))
               node.nd_active 0));
      g "eden.pending_requests" (fun () ->
          float_of_int (Hashtbl.length node.nd_pending));
      g "net.queued_messages" (fun () ->
          float_of_int (Transport.queued_messages node.nd_tp));
      g "net.reassembly_pending" (fun () ->
          float_of_int (Transport.reassembly_pending node.nd_tp));
      c "eden.journal.events" (fun () -> Journal.recorded node.nd_journal);
      c "eden.journal.dropped" (fun () -> Journal.dropped node.nd_journal))
    cl.nodes;
  Metrics.register_counter_fn reg "eden.span.late_events" (fun () ->
      Span.late_events cl.c_spans)

let create ?(seed = 42L) ?net ?(options = default_options) ?segments ?coalesce
    ?(journal_cap = default_journal_cap) ?health ?(spares = 0) ~configs () =
  if configs = [] then invalid_arg "Cluster.create: no machine configs";
  if spares < 0 then invalid_arg "Cluster.create: spares must be >= 0";
  if journal_cap < 0 then
    invalid_arg "Cluster.create: journal_cap must be >= 0";
  (match Api.validate_speculate options.speculate with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let n_members = List.length configs in
  (* Spares are whole machines racked alongside the members: powered
     and attached to the LAN from boot, but outside the epoch-0 ring
     until [join_node] admits them. *)
  let configs =
    configs
    @ List.init spares (fun i ->
          Machine.default_config ~name:(Printf.sprintf "spare%d" i))
  in
  let n_nodes = List.length configs in
  let segment_sizes =
    match segments with
    | None -> [ n_nodes ]
    | Some sizes ->
      if List.exists (fun s -> s <= 0) sizes then
        invalid_arg "Cluster.create: segment sizes must be positive";
      if List.fold_left ( + ) 0 sizes <> n_members then
        invalid_arg "Cluster.create: segment sizes must sum to node count";
      if spares = 0 then sizes
      else (
        (* Spares share the last segment — an extension of the
           existing wing, not a new bridged one. *)
        let rec extend = function
          | [] -> assert false
          | [ last ] -> [ last + spares ]
          | s :: rest -> s :: extend rest
        in
        extend sizes)
  in
  (* Node id -> segment, in id order. *)
  let segment_of_index =
    let table = Array.make n_nodes 0 in
    let idx = ref 0 in
    List.iteri
      (fun seg size ->
        for _ = 1 to size do
          table.(!idx) <- seg;
          incr idx
        done)
      segment_sizes;
    table
  in
  let eng = Engine.create ~seed () in
  let lan =
    Transport.create_net ?params:net ?coalesce eng
      ~segments:(List.length segment_sizes)
  in
  let jsink = Journal.sink () in
  let next_index = ref (-1) in
  let nodes =
    Array.of_list
      (List.map
         (fun cfg ->
           incr next_index;
           let machine = Machine.create eng cfg in
           let tp =
             Transport.attach lan
               ~segment:segment_of_index.(!next_index)
               ~name:cfg.Machine.name
           in
           {
             nd_id = Transport.address tp;
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
               Journal.create jsink ~node:(Transport.address tp)
                 ~cap:journal_cap;
             nd_dir = Name.Table.create 64;
             nd_epoch = 0;
             nd_draining = false;
           })
         configs)
  in
  let reg = Metrics.create () in
  let cl =
    {
      eng;
      c_lan = lan;
      nodes;
      types = Hashtbl.create 16;
      c_rng = Splitmix.create (Int64.add seed 0x51EDEAL);
      opts = options;
      c_node_objects = [||];
      n_inv = 0;
      n_remote = 0;
      c_metrics = reg;
      c_spans = Span.create ();
      c_lat =
        Metrics.histogram reg ~buckets:latency_buckets
          "eden.invocation_latency_s";
      c_nm =
        Array.init n_nodes (fun i ->
            let labels = [ ("node", string_of_int i) ] in
            {
              m_inv = Metrics.counter reg ~labels "eden.invocations";
              m_remote =
                Metrics.counter reg ~labels "eden.invocations_remote";
              m_dispatch = Metrics.counter reg ~labels "eden.dispatches";
              m_hint_hit = Metrics.counter reg ~labels "eden.hint_hits";
              m_hint_miss = Metrics.counter reg ~labels "eden.hint_misses";
              m_locates =
                Metrics.counter reg ~labels "eden.locate_broadcasts";
              m_nacks = Metrics.counter reg ~labels "eden.nacks";
              m_ckpts = Metrics.counter reg ~labels "eden.checkpoints";
              m_ckpt_bytes =
                Metrics.counter reg ~labels "eden.checkpoint_bytes";
              m_retries = Metrics.counter reg ~labels "eden.retries";
              m_recoveries = Metrics.counter reg ~labels "eden.recoveries";
              m_orphans =
                Metrics.counter reg ~labels "eden.orphaned_invocations";
              m_cache_hit =
                Metrics.counter reg ~labels "eden.replica_cache.hits";
              m_cache_miss =
                Metrics.counter reg ~labels "eden.replica_cache.misses";
              m_cache_inval =
                Metrics.counter reg ~labels "eden.replica_cache.invalidations";
              m_ckpt_delta_bytes =
                Metrics.counter reg ~labels "eden.ckpt.delta_bytes";
              m_ckpt_full_bytes =
                Metrics.counter reg ~labels "eden.ckpt.full_bytes";
              m_ckpt_fallbacks =
                Metrics.counter reg ~labels "eden.ckpt.fallbacks";
              m_ckpt_coalesced =
                Metrics.counter reg ~labels "eden.ckpt.coalesced";
              m_clone_fanouts =
                Metrics.counter reg ~labels "eden.clone.fanouts";
              m_clone_cancels =
                Metrics.counter reg ~labels "eden.clone.cancels";
              m_hedges = Metrics.counter reg ~labels "eden.hedge.sent";
              m_dedup = Metrics.counter reg ~labels "eden.dedup.dropped";
              m_retracted =
                Metrics.counter reg ~labels "eden.cancel.retracted";
              m_dir_hits = Metrics.counter reg ~labels "eden.dir.hits";
              m_dir_misses = Metrics.counter reg ~labels "eden.dir.misses";
              m_dir_nacks = Metrics.counter reg ~labels "eden.dir.nacks";
              m_dir_fallbacks =
                Metrics.counter reg ~labels "eden.dir.fallbacks";
              m_dir_leases =
                Metrics.counter reg ~labels "eden.dir.leases_expired";
              m_epoch_bumps =
                Metrics.counter reg ~labels "eden.epoch.bumps";
              m_drain_moves =
                Metrics.counter reg ~labels "eden.drain.moves";
            });
      c_span_ctx = Hashtbl.create 64;
      c_jsink = jsink;
      c_health = None;
      c_hedge =
        (if options.speculate.Api.sp_hedge then
           Some
             {
               hs_hist =
                 Window.Hist.create ~ticks:hedge_ticks
                   ~bounds:latency_buckets;
               hs_cum = Array.make (Array.length latency_buckets) 0;
               hs_cum_over = 0;
               hs_prev = Array.make (Array.length latency_buckets) 0;
               hs_prev_over = 0;
             }
         else None);
      c_profile =
        (if options.use_profiling then
           Some
             {
               pc_service = Metrics.counter reg "eden.profile.service_ns";
               pc_queue = Metrics.counter reg "eden.profile.queue_ns";
               pc_wire = Metrics.counter reg "eden.profile.wire_ns";
               pc_directory =
                 Metrics.counter reg "eden.profile.directory_ns";
               pc_total = Metrics.counter reg "eden.profile.total_ns";
             }
         else None);
      (* The shard map is a pure function of the member set: every
         node computes the same ring, no coordination.  Spares are
         excluded until a join bumps the epoch. *)
      c_dir = Directory.make ~nodes:(List.init n_members Fun.id) ();
      c_dir_nack_fallback = true;
      c_epoch = 0;
      c_members = List.init n_members Fun.id;
      c_rings = Hashtbl.create 8;
    }
  in
  (* The hedge estimator's tick, like the health sampler a daemon on
     the virtual clock; absent entirely when hedging is off, so the
     default cost (and event) profile is untouched. *)
  (match cl.c_hedge with
  | None -> ()
  | Some hs ->
    Engine.every eng ~interval:hedge_tick (fun () -> hedge_close_tick hs));
  register_collectors cl;
  Array.iter
    (fun node ->
      Transport.on_message node.nd_tp (fun ~src msg ->
          on_message cl node ~src msg))
    nodes;
  (* Wire-level verdicts (drops, duplicates, delays, coalesced
     batches) are journalled at the sending node.  They root their own
     trace: the injector fires below the layer that knows contexts. *)
  Transport.set_event_hook lan
    (Some
       (fun ev ->
         let record src kind =
           if src >= 0 && src < Array.length nodes then
             ignore (jrecord cl nodes.(src) kind)
         in
         match ev with
         | Transport.Ev_drop { src; dst; msgs } ->
           record src (Journal.Drop { dst; msgs })
         | Transport.Ev_duplicate { src; dst; msgs } ->
           record src (Journal.Duplicate { dst; msgs })
         | Transport.Ev_delay { src; dst; msgs; by = _ } ->
           record src (Journal.Delay { dst; msgs })
         | Transport.Ev_coalesce { src; dst; msgs } ->
           record src (Journal.Coalesce { dst; msgs })));
  (* Per-payload wire journaling for the profiler.  Unlike the hook
     above these events carry each payload's trace context, so the
     attribution walk can split coalescer hold and injected hold out
     of a request's wire time.  Strictly profiling-gated: unarmed, the
     net layer's only overhead is a [None] test. *)
  if options.use_profiling then
    Transport.set_wire_hook lan
      (Some
         (fun ev ->
           let record src ctx kind =
             if src >= 0 && src < Array.length nodes then
               ignore (jrecord cl nodes.(src) ?ctx kind)
           in
           match ev with
           | Transport.Wv_depart { src; dst; msgs; items } ->
             List.iter
               (fun (m : Message.traced) ->
                 record src m.Message.tr_ctx (Journal.Net_flush { dst; msgs }))
               items
           | Transport.Wv_hold { src; dst; by; items } ->
             List.iter
               (fun (m : Message.traced) ->
                 record src m.Message.tr_ctx (Journal.Net_hold { dst; by }))
               items));
  Hashtbl.replace cl.types "eden_node" (node_type_for cl);
  cl.c_node_objects <-
    Array.map
      (fun node ->
        let name =
          Name.make ~birth_node:node.nd_id ~serial:(next_seq node)
        in
        install_node_object cl node name;
        Capability.make name Rights.invoke_only)
      nodes;
  (* The health plane is strictly opt-in: without [~health] no sampler
     is installed and the hot paths skip the sketch feed, so existing
     runs keep their exact cost profile. *)
  (match health with
  | None -> ()
  | Some hcfg ->
    let hp_topk =
      Array.init n_nodes (fun _ -> Topk.create ~capacity:topk_capacity)
    in
    let transitions = Metrics.counter reg "eden.health.transitions" in
    (* Alert transitions are journalled at node 0 — the health plane is
       a cluster-level observer, and a fixed node keeps the stream
       totally ordered in the merged timeline. *)
    let on_transition rule ~firing ~value:_ =
      Metrics.incr transitions;
      ignore
        (jrecord cl cl.nodes.(0)
           (Journal.Alert { rule = rule.Health.r_name; firing }))
    in
    let h = Health.create ~on_transition hcfg reg in
    Metrics.register_gauge_fn reg "eden.health.alerts_firing" (fun () ->
        float_of_int (Health.firing h));
    Metrics.register_counter_fn reg "eden.health.ticks" (fun () ->
        Health.ticks h);
    cl.c_health <- Some { hp_health = h; hp_topk };
    Engine.every eng ~interval:hcfg.Health.hc_tick (fun () -> Health.tick h));
  cl

let default ?seed ?options ?coalesce ?journal_cap ?health ?spares ~n_nodes () =
  if n_nodes < 1 then invalid_arg "Cluster.default: need at least one node";
  let configs =
    List.init n_nodes (fun i ->
        Machine.default_config ~name:(Printf.sprintf "node%d" i))
  in
  create ?seed ?options ?coalesce ?journal_cap ?health ?spares ~configs ()

let engine cl = cl.eng
let network cl = cl.c_lan
let node_segment cl i = Transport.segment (node_of cl i).nd_tp
let node_count cl = Array.length cl.nodes
let journal cl i = (node_of cl i).nd_journal

let journals cl =
  Array.to_list (Array.map (fun node -> node.nd_journal) cl.nodes)

let timeline cl = Timeline.assemble (journals cl)

let journal_dropped cl =
  Array.fold_left
    (fun acc node -> acc + Journal.dropped node.nd_journal)
    0 cl.nodes

let health cl = Option.map (fun hp -> hp.hp_health) cl.c_health

(* The canonical owner at the current epoch — no liveness detour, so
   the answer is a pure function of the membership (for tests and
   tooling; the kernel's own routing detours past downed shards). *)
let directory_shard cl name = Directory.shard (ring_of cl cl.c_epoch) name
let set_dir_nack_fallback cl enabled = cl.c_dir_nack_fallback <- enabled

let hot_objects cl ?(k = 10) i =
  ignore (node_of cl i);
  match cl.c_health with
  | None -> []
  | Some hp -> Topk.top hp.hp_topk.(i) k

let hot_objects_rollup cl ?(k = 10) () =
  match cl.c_health with
  | None -> []
  | Some hp ->
    Topk.top
      (Topk.merge ~capacity:topk_capacity (Array.to_list hp.hp_topk))
      k
let machine cl i = (node_of cl i).nd_machine
let node_up cl i = (node_of cl i).nd_up

let node_object cl i =
  ignore (node_of cl i);
  cl.c_node_objects.(i)

let register_type cl tm =
  let tname = Typemgr.name tm in
  match Hashtbl.find_opt cl.types tname with
  | Some existing when existing == tm -> ()
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Cluster.register_type: %S already registered" tname)
  | None -> Hashtbl.replace cl.types tname tm

let find_type cl tname = Hashtbl.find_opt cl.types tname

let create_object cl ~node ~type_name init =
  do_create_local cl (node_of cl node) type_name init

let invoke cl ~from ?timeout ?retry cap ~op args =
  do_invoke cl ~from ?timeout ?retry cap ~op args

let invoke_async cl ~from ?timeout ?retry cap ~op args =
  let pr = Promise.create cl.eng in
  let pid =
    Engine.spawn cl.eng ~name:"invoke_async" (fun () ->
        let r = do_invoke cl ~from ?timeout ?retry cap ~op args in
        ignore (Promise.fill pr r))
  in
  Engine.set_daemon cl.eng pid;
  pr

(* Find the live primary of an object, scanning all nodes (an
   omniscient control-plane shortcut used by the external management
   operations and tests). *)
let find_primary cl name =
  let found = ref None in
  Array.iter
    (fun node ->
      if !found = None && node.nd_up then
        match Name.Table.find_opt node.nd_active name with
        | Some obj when obj.ob_status <> Dead -> found := Some obj
        | Some _ | None -> ())
    cl.nodes;
  !found

let require_right cap right opname =
  if Rights.mem right (Capability.rights cap) then Ok ()
  else Error (Error.Rights_violation opname)

let move cl cap ~to_node =
  match require_right cap Rights.Kernel_move "move" with
  | Error e -> Error e
  | Ok () -> (
    if to_node < 0 || to_node >= Array.length cl.nodes then
      Error (Error.Move_refused "no such node")
    else
      match find_primary cl (Capability.name cap) with
      | None -> Error Error.No_such_object
      | Some obj -> do_move cl obj ~to_node ~self_inflight:false)

let freeze cl cap =
  match require_right cap Rights.Kernel_checkpoint "freeze" with
  | Error e -> Error e
  | Ok () -> (
    match find_primary cl (Capability.name cap) with
    | None -> Error Error.No_such_object
    | Some obj ->
      obj.ob_frozen <- true;
      Ok ())

let unfreeze cl cap =
  match require_right cap Rights.Kernel_checkpoint "unfreeze" with
  | Error e -> Error e
  | Ok () -> (
    let name = Capability.name cap in
    match find_primary cl name with
    | None -> Error Error.No_such_object
    | Some obj ->
      if not obj.ob_frozen then Ok ()
      else if
        Array.exists
          (fun node -> node.nd_up && Name.Table.mem node.nd_replicas name)
          cl.nodes
      then Error (Error.Move_refused "object has pinned replicas")
      else begin
        obj.ob_frozen <- false;
        let node = home cl obj in
        (* The version bump: every cached copy of the pre-thaw
           representation is now stale.  [Cache_invalidate] purges
           hints and cached replicas cluster-wide (broadcasts bypass
           the unicast fault injector, so it is reliable under chaos
           too); it carries no request id, so it can never be mistaken
           for a reply to some unrelated request in flight on a
           receiving node.  The broadcast skips the sender, so the
           home node — which may itself hold a cached copy from before
           the object migrated here — is invalidated directly. *)
        invalidate_cached cl node name;
        bcast_msg cl node (Message.Cache_invalidate { target = name });
        Ok ()
      end)

let replicate cl cap ~to_node =
  match require_right cap Rights.Kernel_checkpoint "replicate" with
  | Error e -> Error e
  | Ok () -> (
    if to_node < 0 || to_node >= Array.length cl.nodes then
      Error (Error.Move_refused "no such node")
    else
      match find_primary cl (Capability.name cap) with
      | None -> Error Error.No_such_object
      | Some obj -> do_replicate cl obj ~to_node)

let checkpoint_of cl cap =
  match require_right cap Rights.Kernel_checkpoint "checkpoint" with
  | Error e -> Error e
  | Ok () -> (
    match find_primary cl (Capability.name cap) with
    | None -> Error Error.No_such_object
    | Some obj -> do_checkpoint cl obj)

let checkpoint_async_of cl cap =
  match require_right cap Rights.Kernel_checkpoint "checkpoint" with
  | Error e -> Error e
  | Ok () -> (
    match find_primary cl (Capability.name cap) with
    | None -> Error Error.No_such_object
    | Some obj -> do_checkpoint_async cl obj)

let destroy cl cap =
  match require_right cap Rights.Kernel_destroy "destroy" with
  | Error e -> Error e
  | Ok () ->
    let name = Capability.name cap in
    let existed = ref false in
    (* Dismantle the primary without marking anything passive: there
       will be nothing to reincarnate from. *)
    (match find_primary cl name with
    | Some obj ->
      existed := true;
      obj.ob_status <- Dead;
      let works = outstanding_works obj in
      List.iter (fun w -> fail_work cl obj w Error.No_such_object) works;
      unregister cl obj;
      kill_object_procs cl obj
    | None -> ());
    (* Existence check is omniscient (control plane); the purge itself
       travels as a broadcast notice, so a powered-off node keeps its
       snapshot — a real 1981 limitation, noted in DESIGN.md. *)
    Array.iter
      (fun node ->
        if
          node.nd_up
          && (Name.Table.mem node.nd_store name
             || Name.Table.mem node.nd_replicas name)
        then existed := true)
      cl.nodes;
    (match
       Array.find_opt (fun node -> node.nd_up) cl.nodes
     with
    | None -> ()
    | Some origin ->
      forget_object cl origin name;
      bcast_msg cl origin (Message.Destroy_notice { target = name }));
    if !existed then Ok () else Error Error.No_such_object

(* -------------------------------------------------------------------- *)
(* Failure injection *)

let crash_node cl i =
  let node = node_of cl i in
  if node.nd_up then begin
    node.nd_up <- false;
    Transport.set_up node.nd_tp false;
    let objs =
      Name.Table.fold (fun _ o acc -> o :: acc) node.nd_active []
      @ Name.Table.fold (fun _ o acc -> o :: acc) node.nd_replicas []
      @ Name.Table.fold (fun _ o acc -> o :: acc) node.nd_cache []
    in
    List.iter
      (fun obj ->
        obj.ob_status <- Dead;
        (* Volatile state evaporates: no replies, no notifications. *)
        kill_object_procs cl obj)
      objs;
    Name.Table.reset node.nd_active;
    Name.Table.reset node.nd_replicas;
    Name.Table.reset node.nd_cache;
    Name.Table.reset node.nd_fetching;
    Name.Table.reset node.nd_cache_epoch;
    Name.Table.reset node.nd_hints;
    Name.Table.reset node.nd_forward;
    Name.Table.reset node.nd_activating;
    Name.Table.iter (fun _ pr -> ignore (Promise.fill pr None)) node.nd_locating;
    Name.Table.reset node.nd_locating;
    Name.Table.reset node.nd_clone_sites;
    (* The registry shard is volatile kernel memory: requesters meet
       misses after the restart, fall back to broadcast, and their
       republishes rebuild the shard on demand. *)
    Name.Table.reset node.nd_dir;
    (* Volatile like the rest — but [nd_seq] survives, so request ids
       issued after the restart can never collide with pre-crash ones
       still remembered elsewhere. *)
    Dedup.reset node.nd_recent;
    Hashtbl.reset node.nd_pending;
    Hashtbl.reset node.nd_types_loaded;
    node.nd_mem <-
      Memory.create
        ~bytes:(Machine.config node.nd_machine).Machine.memory_bytes;
    let kprocs = node.nd_kprocs in
    node.nd_kprocs <- [];
    List.iter (fun p -> Engine.kill cl.eng p) kprocs
  end

(* Reincarnate every object whose durable checkpoint lives on this
   freshly-restarted node and which is active nowhere.  Among the up
   checksites with a working disk and a stored snapshot, the one
   holding the highest snapshot version rebuilds (the earliest listed
   site on a tie), so a Mirrored object restarting on several sites at
   once reactivates exactly once — and from its newest state, not from
   whichever stale mirror happens to be listed first. *)
let rebuild_from_store cl node =
  let candidates =
    Name.Table.fold
      (fun name snap acc -> if snap.ss_passive then (name, snap) :: acc else acc)
      node.nd_store []
    |> List.sort (fun (a, _) (b, _) -> Name.compare a b)
  in
  List.iter
    (fun (name, snap) ->
      let sites =
        Reliability.checksites snap.ss_reliability ~home:node.nd_id
      in
      let best_able =
        List.fold_left
          (fun best s ->
            if
              s < 0
              || s >= Array.length cl.nodes
              || (not cl.nodes.(s).nd_up)
              || not cl.nodes.(s).nd_disk_ok
            then best
            else
              match Name.Table.find_opt cl.nodes.(s).nd_store name with
              | None -> best
              | Some ss -> (
                match best with
                | Some (_, bv) when bv >= ss.ss_version -> best
                | _ -> Some (s, ss.ss_version)))
          None sites
      in
      match best_able with
      | Some (s, _) when s = node.nd_id && find_primary cl name = None -> (
        match activate cl node name with
        | Ok _ -> ()
        | Error _ -> () (* object stays passive; invocation will retry *))
      | _ -> ())
    candidates

let restart_node ?(rebuild = false) cl i =
  let node = node_of cl i in
  if not node.nd_up then begin
    node.nd_up <- true;
    Transport.set_up node.nd_tp true;
    (* A node that slept through reconfigurations catches up at boot
       (a real kernel would learn the epoch from its first exchange).
       Journalled only when the view actually moves — invariant 7
       demands strict increase per node. *)
    if cl.c_epoch > node.nd_epoch then begin
      node.nd_epoch <- cl.c_epoch;
      Metrics.incr (nm cl node).m_epoch_bumps;
      ignore (jrecord cl node (Journal.Epoch_bump { epoch = cl.c_epoch }))
    end;
    (* Everything checkpointed to this node's disk is authoritatively
       passive if it was active here at the crash: conservatively mark
       all local snapshots passive unless some other node currently
       runs the object (it will answer locates first anyway). *)
    Name.Table.iter (fun _ snap -> snap.ss_passive <- true) node.nd_store;
    (* The kernel reboots its node object under its boot-time name. *)
    if Array.length cl.c_node_objects > i then
      install_node_object cl node
        (Capability.name cl.c_node_objects.(i));
    if rebuild && node.nd_disk_ok then
      ignore
        (spawn_kproc cl node ~name:"k:rebuild" (fun () ->
             rebuild_from_store cl node))
  end

let set_disk_failed cl i failed =
  let node = node_of cl i in
  if node.nd_disk_ok = failed then node.nd_disk_ok <- not failed

let disk_ok cl i = (node_of cl i).nd_disk_ok

(* -------------------------------------------------------------------- *)
(* Online reconfiguration: epoch-stamped membership.

   The membership table is a pair (epoch, member list).  Every change
   — a spare joining, a member decommissioning — bumps the epoch,
   caches the new epoch's ring, journals the initiator's [Epoch_bump]
   and broadcasts an [Epoch_announce]; other nodes adopt the view when
   the announce lands (or at their next power-on).  Nothing blocks on
   the announce: a node serving through an old view resolves against
   that view's cached ring, and the consistent ring's minimal-remap
   property bounds the churn — one membership step moves about 1/n of
   the name space, and invariant 7 pins that a lagging view can cost a
   detour or a broadcast, never a stranded locate. *)

let epoch cl = cl.c_epoch
let members cl = cl.c_members
let is_member cl i = List.mem (node_of cl i).nd_id cl.c_members
let is_draining cl i = (node_of cl i).nd_draining

let bump_epoch cl node ~members =
  cl.c_epoch <- cl.c_epoch + 1;
  cl.c_members <- members;
  Hashtbl.replace cl.c_rings cl.c_epoch (Directory.make ~nodes:members ());
  node.nd_epoch <- cl.c_epoch;
  Metrics.incr (nm cl node).m_epoch_bumps;
  let ev = jrecord cl node (Journal.Epoch_bump { epoch = cl.c_epoch }) in
  bcast_msg ~ctx:(Tracectx.root ev) cl node
    (Message.Epoch_announce { epoch = cl.c_epoch; members })

let join_node cl i =
  let node = node_of cl i in
  if List.mem i cl.c_members then
    Error (Printf.sprintf "node %d is already a member" i)
  else if not node.nd_up then
    Error (Printf.sprintf "node %d is powered off" i)
  else begin
    bump_epoch cl node ~members:(List.sort Int.compare (i :: cl.c_members));
    Ok ()
  end

(* The drain destination for one evacuated object: the least-loaded
   live member that is neither leaving nor itself draining, lowest id
   on ties — deterministic, so same-seed runs evacuate identically. *)
let drain_target cl ~leaving =
  List.fold_left
    (fun best m ->
      if m = leaving || (not cl.nodes.(m).nd_up) || cl.nodes.(m).nd_draining
      then best
      else
        let load = Name.Table.length cl.nodes.(m).nd_active in
        match best with
        | Some (_, bl) when bl <= load -> best
        | Some _ | None -> Some (m, load))
    None cl.c_members

(* Blocking.  Drain, then leave: checkpoint and move every object
   homed here to surviving members (each move republishes the new
   home to the name's registry shard), bump the epoch without this
   node, and only then power off.  Traffic keeps flowing throughout —
   requests during a move queue and forward as usual.  An object whose
   move fails stays put and relies on its fresh checkpoint for
   reincarnation after the power-off. *)
let decommission_node cl i =
  let node = node_of cl i in
  if not (List.mem i cl.c_members) then
    Error (Printf.sprintf "node %d is not a member" i)
  else if not node.nd_up then
    Error (Printf.sprintf "node %d is powered off" i)
  else if List.length cl.c_members <= 1 then
    Error "cannot decommission the last member"
  else begin
    node.nd_draining <- true;
    let victims =
      Name.Table.fold (fun _ o acc -> o :: acc) node.nd_active []
      |> List.filter (fun o ->
             o.ob_status <> Dead && Typemgr.name o.ob_type <> "eden_node")
      |> List.sort (fun a b -> Name.compare a.ob_name b.ob_name)
    in
    List.iter
      (fun obj ->
        (* Re-check per object: traffic is live, so an earlier victim
           may have died or been moved away while we drained. *)
        if obj.ob_status <> Dead && obj.ob_home = i then
          match drain_target cl ~leaving:i with
          | None -> () (* no live destination; the checkpoint covers us *)
          | Some (to_node, _) -> (
            (* Checkpoint first so the state is durable whatever the
               move does — and so the move's own post-transfer rounds
               ride the delta pipeline against a fresh base. *)
            ignore (do_checkpoint cl obj);
            match do_move cl obj ~to_node ~self_inflight:false with
            | Ok () ->
              Metrics.incr (nm cl node).m_drain_moves;
              ignore
                (jrecord cl node
                   (Journal.Drain_move
                      { target = Name.to_string obj.ob_name; to_node }))
            | Error _ -> ()))
      victims;
    bump_epoch cl node ~members:(List.filter (fun m -> m <> i) cl.c_members);
    node.nd_draining <- false;
    crash_node cl i;
    Ok ()
  end

(* -------------------------------------------------------------------- *)
(* Introspection *)

let where_is cl cap =
  match find_primary cl (Capability.name cap) with
  | Some obj -> Some obj.ob_home
  | None -> None

let is_active cl cap = where_is cl cap <> None

let replica_sites cl cap =
  let name = Capability.name cap in
  Array.to_list cl.nodes
  |> List.filter_map (fun node ->
         if node.nd_up && Name.Table.mem node.nd_replicas name then
           Some node.nd_id
         else None)

let checkpoint_sites cl cap =
  let name = Capability.name cap in
  Array.to_list cl.nodes
  |> List.filter_map (fun node ->
         if Name.Table.mem node.nd_store name then Some node.nd_id else None)

let active_objects cl i = Name.Table.length (node_of cl i).nd_active
let stats_invocations cl = cl.n_inv
let stats_remote_invocations cl = cl.n_remote
let metrics cl = cl.c_metrics
let spans cl = cl.c_spans

let metrics_snapshot cl =
  Eden_obs.Snapshot.take ~at:(Engine.now cl.eng) ~spans:cl.c_spans cl.c_metrics

(* -------------------------------------------------------------------- *)
(* Running *)

let in_process cl ?(name = "driver") f = Engine.spawn cl.eng ~name f
let run ?until cl = Engine.run ?until cl.eng
