(* Reliability (paper sec. 4.4): checkpoints to the object's checksites
   — full or delta rounds, synchronous or in the background — the crash
   primitive that leaves an object passive, and activation, which
   reincarnates a passive object from its newest snapshot. *)

open Eden_sim
open Eden_hw
open State

(* -------------------------------------------------------------------- *)
(* The checksite side: snapshots on stable storage *)

(* One snapshot write of [bytes] to [node]'s disk, counted. *)
let disk_write cl node bytes =
  Metrics.incr (nm cl node).m_ckpts;
  Metrics.add (nm cl node).m_ckpt_bytes bytes;
  Disk.write (Machine.disk node.nd_machine) ~bytes

let restamp snap ~repr ~version ~reliability ~frozen ~passive =
  snap.ss_repr <- repr;
  snap.ss_version <- version;
  snap.ss_reliability <- reliability;
  snap.ss_frozen <- frozen;
  snap.ss_passive <- passive

(* Returns whether the snapshot reached stable storage; a failed disk
   accepts nothing (and writes no partial state). *)
let write_snapshot cl node ~target ~type_name ~repr ~version ~reliability
    ~frozen ~passive =
  if not node.nd_disk_ok then false
  else begin
    disk_write cl node (Value.size_bytes repr);
    (match Name.Table.find_opt node.nd_store target with
    | Some snap -> restamp snap ~repr ~version ~reliability ~frozen ~passive
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
        disk_write cl node (Delta.size_bytes delta);
        restamp snap ~repr ~version ~reliability ~frozen ~passive:false;
        true)

(* A mark stamped below the stored snapshot's version is stale
   (reordered behind a later checkpoint): ignore it rather than flip
   the authority bit on newer state. *)
let on_mark node ~target ~passive ~version =
  match Name.Table.find_opt node.nd_store target with
  | Some snap when version >= snap.ss_version -> snap.ss_passive <- passive
  | Some _ | None -> ()

(* -------------------------------------------------------------------- *)
(* The home side: checkpoint rounds *)

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
    let send_write site (counter, bytes) msg =
      let req_id = new_request_id node in
      let reply = expect_reply cl node req_id (fun pr -> P_ack pr) in
      Metrics.add counter bytes;
      send_msg ~ctx cl node ~dst:site (msg req_id);
      reply
    in
    let send_full site =
      send_write site
        (metrics.m_ckpt_full_bytes, Value.size_bytes repr)
        (fun req_id ->
          Message.Ckpt_write
            {
              req_id;
              target = obj.ob_name;
              type_name;
              repr;
              version;
              reliability = obj.ob_reliability;
              frozen = obj.ob_frozen;
              reply_to = node.nd_id;
            })
    in
    let send_delta site ~base_version d =
      send_write site
        (metrics.m_ckpt_delta_bytes, Delta.size_bytes d)
        (fun req_id ->
          Message.Ckpt_delta
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
            })
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
              Some (site, send_delta site ~base_version:bv d, true)
            | _ -> Some (site, send_full site, false))
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
    let rec await_ack site reply was_delta =
      match await_reply ?timeout:(remaining cl.eng deadline) reply with
      | Some true -> true
      | Some false when was_delta ->
        Metrics.incr metrics.m_ckpt_fallbacks;
        await_ack site (send_full site) false
      | Some false | None -> false
    in
    let ok_sites, failed =
      List.fold_left
        (fun (oks, failed) (site, reply, was_delta) ->
          if await_ack site reply was_delta then (site :: oks, failed)
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

let refusal obj =
  if obj.ob_is_replica then
    Some (Error.Bad_arguments "replicas do not checkpoint")
  else if obj.ob_status = Dead then Some Error.Object_crashed
  else None

let do_checkpoint cl obj =
  match refusal obj with
  | Some e -> Error e
  | None ->
    acquire_ckpt_slot obj;
    Fun.protect
      ~finally:(fun () -> release_ckpt_slot obj)
      (fun () -> checkpoint_round cl obj ~repr:obj.ob_repr)

(* Start a checkpoint and return immediately.  The round snapshots the
   representation at call time — values are immutable, so capturing
   the reference is a free copy-on-write — and runs in a kernel
   process.  [Ok ()] means launched (or coalesced), not succeeded. *)
let do_checkpoint_async cl obj =
  match refusal obj with
  | Some e -> Error e
  | None ->
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

(* -------------------------------------------------------------------- *)
(* Crash and reincarnation *)

(* The crash primitive: destroy all active state.  If the object has a
   checkpoint it becomes passive; otherwise it is gone for good. *)
let do_crash cl obj =
  if obj.ob_status <> Dead then begin
    let node = home cl obj in
    Coordinator.fail_outstanding cl obj Error.Object_crashed;
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
    Coordinator.unregister cl obj;
    Coordinator.kill_object_procs cl obj
  end

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
        match reserve_instance cl node snap.ss_type snap.ss_repr with
        | Error e -> finish (Error e)
        | Ok (tm, footprint) ->
          (* Read the long-term representation from disk. *)
          Disk.read (Machine.disk node.nd_machine)
            ~bytes:(Value.size_bytes snap.ss_repr);
          consume node (costs node).Costs.activation_fixed_cpu;
          let obj =
            build_obj cl ~name ~tm ~repr:snap.ss_repr ~frozen:snap.ss_frozen
              ~reliability:snap.ss_reliability ~home:node.nd_id
              ~is_replica:false ~mem:footprint
          in
          obj.ob_ckpt_sites <-
            Reliability.checksites snap.ss_reliability ~home:node.nd_id;
          obj.ob_ckpt_version <- snap.ss_version;
          obj.ob_ckpt_base <- Some (snap.ss_version, snap.ss_repr);
          (* Seed the acked table optimistically: checksites are
             usually at the version we just restored.  A site that is
             actually behind nacks its first delta, which falls back to
             a full write and repairs the entry. *)
          List.iter
            (fun site -> Hashtbl.replace obj.ob_ckpt_acked site snap.ss_version)
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
          | Some handler -> handler (Lazy.force obj.ob_ctx));
          if obj.ob_status = Dead then finish (Error Error.Object_crashed)
          else begin
            Coordinator.start_primary cl node obj;
            (* Reincarnation is a home change the shard must hear
               about, or it keeps naming the dead home. *)
            Locate.dir_publish ~ctx:actx cl node name ~home:node.nd_id
              ~replicas:[];
            Metrics.incr (nm cl node).m_recoveries;
            finish (Ok obj)
          end)))

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
      (fun name snap acc ->
        if snap.ss_passive then (name, snap) :: acc else acc)
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
              (not (valid_node cl s))
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
      | Some (s, _)
        when s = node.nd_id && Option.is_none (find_primary cl name) -> (
        match activate cl node name with
        | Ok _ -> ()
        | Error _ -> () (* object stays passive; invocation will retry *))
      | _ -> ())
    candidates
