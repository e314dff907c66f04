(* Location, mobility and replication (paper sec. 4.3): where an object
   lives, how a requester finds it — hints, forwarding pointers, the
   coalesced broadcast locate and the sharded directory — and the two
   primitives that change the answer, move and replicate. *)

open Eden_util
open Eden_sim
open Eden_hw
open State

let locate_window = Time.ms 3
let locate_retries = 3

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

(* Drop [target]'s entry at this shard if it still names [stale_home]
   — a newer publish that already repaired it wins. *)
let dir_drop_stale node target ~stale_home =
  match Name.Table.find_opt node.nd_dir target with
  | Some e when e.de_home = stale_home -> Name.Table.remove node.nd_dir target
  | Some _ | None -> ()

(* The shard's lookup: a valid entry, or a miss — an expired entry is
   dropped, not served: better one broadcast than a misdirected send to
   a long-dead home. *)
let dir_lookup cl node target =
  match Name.Table.find_opt node.nd_dir target with
  | Some e when dir_lease_valid cl e.de_lease -> Some e
  | entry ->
    (match entry with
    | Some _ ->
      Name.Table.remove node.nd_dir target;
      Metrics.incr (nm cl node).m_dir_leases
    | None -> ());
    Metrics.incr (nm cl node).m_dir_misses;
    None

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
   tell the shard. *)
let dir_invalidate ?ctx cl node target ~stale_home =
  let shard = dir_shard cl node target in
  if shard = node.nd_id then dir_drop_stale node target ~stale_home
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
  if shard = node.nd_id then
    (* This node is the shard: consult the registry in place. *)
    match dir_lookup cl node target with
    | Some e -> `Hit (e.de_home, e.de_replicas)
    | None -> `Miss
  else begin
    let req_id = new_request_id node in
    let reply = expect_reply cl node req_id (fun pr -> P_dir pr) in
    send_msg ?ctx cl node ~dst:shard
      (Message.Dir_get { req_id; target; reply_to = node.nd_id });
    let window =
      match remaining cl.eng deadline with
      | Some left when Time.(left < dir_window) -> left
      | Some _ | None -> dir_window
    in
    match await_reply ~timeout:window reply with
    | Some (Some (home, replicas)) -> `Hit (home, replicas)
    | Some None -> `Miss
    | None -> `Dead
  end

(* The shard's answer to a [Dir_get].  The reply echoes the requester's
   own request id, so it routes to the pending lookup and nothing
   else. *)
let serve_dir_get ?ctx cl node ~req_id ~target ~reply_to =
  match dir_lookup cl node target with
  | Some e ->
    send_msg ?ctx cl node ~dst:reply_to
      (Message.Dir_put
         { req_id; target; home = e.de_home; replicas = e.de_replicas;
           lease = e.de_lease })
  | None ->
    send_msg ?ctx cl node ~dst:reply_to
      (Message.Dir_nack { req_id; target; home = -1 })

let dir_slot = function P_dir pr -> Some pr | _ -> None

(* Our own request id coming back is the shard's answer to a
   [Dir_get]; anything else is a publish (or, for a nack, a requester's
   NACK-on-wrong-home) and this node is the shard.  The origin check is
   load-bearing: sequence numbers are node-local, so a foreign message
   must never resolve an unrelated pending entry here. *)

let on_dir_put node ~(req_id : Message.request_id) ~target ~home ~replicas
    ~lease =
  if req_id.origin = node.nd_id then
    fill_reply node req_id dir_slot (Some (home, replicas))
  else dir_store node ~target ~home ~replicas ~lease

let on_dir_nack node ~(req_id : Message.request_id) ~target ~home =
  if req_id.origin = node.nd_id then fill_reply node req_id dir_slot None
  else dir_drop_stale node target ~stale_home:home

(* -------------------------------------------------------------------- *)
(* The broadcast locate *)

let bcast_locate ?ctx cl node name req_id =
  Metrics.incr (nm cl node).m_locates;
  (* Locates count toward object heat too: an object that is hard to
     find generates locate traffic even when invocations stall. *)
  (match cl.c_health with
  | Some hp -> Topk.add hp.hp_topk.(node.nd_id) (Name.to_string name)
  | None -> ());
  bcast_msg ?ctx cl node
    (Message.Locate_request { req_id; target = name; reply_to = node.nd_id })

(* Broadcast locate; prefer an actively-hosting node, else a replica,
   else a passive checksite. *)
let locate_once ?ctx cl node name ~window =
  let req_id = new_request_id node in
  let candidates = ref [] in
  let reply =
    expect_reply cl node req_id (fun pr ->
        P_locate { loc_candidates = candidates; loc_active = pr })
  in
  bcast_locate ?ctx cl node name req_id;
  match await_reply ~timeout:window reply with
  | Some hit -> Some hit
  | None ->
    (* The broadcast does not loop back, but this node may itself be a
       checksite: its own snapshot competes on version like any other
       (the home can crash without marking mirrors passive, so
       passivity of the local copy proves nothing either way). *)
    (if node.nd_disk_ok then
       match Name.Table.find_opt node.nd_store name with
       | Some snap ->
         candidates :=
           (node.nd_id, Message.Res_passive, snap.ss_version) :: !candidates
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
        None (List.rev !candidates)
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

let serve_locate ?ctx cl node ~req_id ~target ~reply_to =
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

(* -------------------------------------------------------------------- *)
(* Clone sites: the replica set speculative reads fan out to *)

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
   [Res_replica] answer teaches the clone set in [on_locate_reply].
   The table entry — possibly still empty — doubles as the asked-once
   marker; [Cache_invalidate] and destruction drop it, re-arming
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
    bcast_locate ?ctx cl node name (new_request_id node)
  end

let on_locate_reply cl node ~(req_id : Message.request_id) ~target ~at_node
    ~residence ~version =
  (* A replica answer teaches the clone set — even when the locate
     already resolved (the home usually answers first, and discovery
     broadcasts keep no pending entry at all): this site serves reads
     of the (frozen) name. *)
  if residence = Message.Res_replica then
    learn_clone_site cl node target at_node;
  match Hashtbl.find_opt node.nd_pending req_id.seq with
  | Some (P_locate st) -> (
    match residence with
    | Message.Res_active ->
      ignore (Promise.fill st.loc_active (at_node, residence))
    | Message.Res_replica | Message.Res_passive ->
      st.loc_candidates :=
        (at_node, residence, version) :: !(st.loc_candidates))
  | Some _ | None -> ()

(* -------------------------------------------------------------------- *)
(* Mobility: move and replicate *)

(* Send the transfer [make] builds around a fresh id to [to_node] and
   await its ack: [Some true] accepted, [Some false] refused (out of
   memory), [None] no answer. *)
let transfer cl node ~to_node make =
  let transfer_id = new_request_id node in
  let reply = expect_reply cl node transfer_id (fun pr -> P_ack pr) in
  send_msg cl node ~dst:to_node (make transfer_id);
  await_reply ~timeout:ack_timeout reply

let do_move cl obj ~to_node ~self_inflight =
  let source = home cl obj in
  if obj.ob_is_replica then Error (Error.Move_refused "replicas cannot move")
  else if to_node = obj.ob_home then Ok ()
  else if obj.ob_status <> Running then
    Error (Error.Move_refused "object is not quiescent")
  else begin
    let target = node_of cl to_node in
    Coordinator.drain obj ~floor:(if self_inflight then 1 else 0);
    (* Ship the representation; the Move_transfer message carries the
       object's long-term state across the wire. *)
    let accepted =
      transfer cl source ~to_node (fun transfer_id ->
          Message.Move_transfer
            {
              target = obj.ob_name;
              type_name = Typemgr.name obj.ob_type;
              repr = obj.ob_repr;
              frozen = obj.ob_frozen;
              reliability = obj.ob_reliability;
              from_node = source.nd_id;
              transfer_id;
            })
    in
    (* Whatever the outcome, requests stashed while draining are
       re-admitted once the object is running again. *)
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
      Coordinator.spawn_behaviours cl obj;
      Coordinator.resume obj;
      (* Every mover — the external [move], the migration policy's
         [balance_once], checkpoint-driven migration — publishes the
         new home here, so the registry never needs per-caller
         discipline.  Without this a balanced-away object costs every
         directory user a nack round before the fallback repairs it. *)
      dir_publish cl source obj.ob_name ~home:to_node ~replicas:[];
      Ok ()
    | Some false ->
      Coordinator.resume obj;
      Error Error.Out_of_memory
    | None ->
      Coordinator.resume obj;
      Error Error.Node_down
  end

let do_replicate cl obj ~to_node =
  let node = home cl obj in
  if not obj.ob_frozen then
    Error (Error.Move_refused "only frozen objects can be replicated")
  else if to_node = obj.ob_home then Ok ()
  else
    match
      transfer cl node ~to_node (fun transfer_id ->
          Message.Replica_install
            {
              target = obj.ob_name;
              type_name = Typemgr.name obj.ob_type;
              repr = obj.ob_repr;
              transfer_id;
              from_node = node.nd_id;
            })
    with
    | Some true ->
      (* Same-home publish: the shard unions [to_node] into the
         entry's replica set, seeding requesters' clone sets. *)
      dir_publish cl node obj.ob_name ~home:obj.ob_home ~replicas:[ to_node ];
      Ok ()
    | Some false -> Error Error.Out_of_memory
    | None -> Error Error.Node_down

(* The receiving end of a move: room for the object is reserved here;
   the source installs it once the ack lands. *)
let accept_transfer cl node ~type_name ~repr =
  match reserve_instance cl node type_name repr with
  | Error _ -> false
  | Ok _ ->
    consume node (costs node).Costs.activation_fixed_cpu;
    true

let install_replica cl node ~target ~type_name ~repr =
  match reserve_instance cl node type_name repr with
  | Error _ -> false
  | Ok (_, footprint) when Name.Table.mem node.nd_replicas target ->
    (* Already replicated here; release the double reservation and
       accept idempotently. *)
    Memory.release node.nd_mem footprint;
    true
  | Ok (tm, footprint) ->
    let obj =
      build_obj cl ~name:target ~tm ~repr ~frozen:true
        ~reliability:Reliability.Local ~home:node.nd_id ~is_replica:true
        ~mem:footprint
    in
    Coordinator.spawn_coordinator cl obj;
    Name.Table.replace node.nd_replicas target obj;
    true
