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

open State

let drop_cached cl node target =
  match Name.Table.find_opt node.nd_cache target with
  | None -> ()
  | Some obj ->
    Coordinator.fail_outstanding cl obj Error.No_such_object;
    Name.Table.remove node.nd_cache target;
    Eden_hw.Memory.release node.nd_mem obj.ob_mem;
    obj.ob_mem <- 0;
    Metrics.incr (nm cl node).m_cache_inval;
    Coordinator.kill_object_procs cl obj

let cache_epoch node name =
  match Name.Table.find_opt node.nd_cache_epoch name with
  | Some e -> e
  | None -> 0

(* Full invalidation: purge any installed copy and poison fetches in
   flight (their payload predates the bump, see [cache_fetch]). *)
let invalidate_cached cl node target =
  if
    Name.Table.mem node.nd_cache target
    || Name.Table.mem node.nd_fetching target
  then begin
    let epoch = cache_epoch node target + 1 in
    Name.Table.replace node.nd_cache_epoch target epoch;
    ignore
      (jrecord cl node
         (Journal.Cache_invalidate { target = Name.to_string target; epoch }))
  end;
  drop_cached cl node target

(* Nothing local answers for [name] yet: no cached copy, no primary,
   no replica. *)
let uncached node name =
  (not (Name.Table.mem node.nd_cache name))
  && (not (Name.Table.mem node.nd_active name))
  && not (Name.Table.mem node.nd_replicas name)

let install_cached cl node name ~type_name ~repr =
  if node.nd_up && uncached node name then
    match reserve_instance cl node type_name repr with
    | Error _ -> ()
    | Ok (tm, footprint) ->
      let obj =
        build_obj cl ~name ~tm ~repr ~frozen:true
          ~reliability:Reliability.Local ~home:node.nd_id ~is_replica:true
          ~mem:footprint
      in
      Coordinator.spawn_coordinator cl obj;
      Name.Table.replace node.nd_cache name obj;
      ignore
        (jrecord cl node
           (Journal.Cache_install
              { target = Name.to_string name; epoch = cache_epoch node name }))

(* Fetch [name]'s representation from [from_node] in the background.
   Failures are silent: the cache is an optimisation, and the next
   frozen-hinted reply will try again. *)
let cache_fetch ?ctx cl node name ~from_node =
  if
    cl.opts.use_replica_cache && node.nd_up && from_node <> node.nd_id
    && (not (Name.Table.mem node.nd_fetching name))
    && uncached node name
  then begin
    Name.Table.replace node.nd_fetching name ();
    ignore
      (spawn_kproc cl node ~name:"k:cache_fetch" (fun () ->
           Fun.protect
             ~finally:(fun () -> Name.Table.remove node.nd_fetching name)
             (fun () ->
               let epoch = cache_epoch node name in
               let req_id = new_request_id node in
               let reply = expect_reply cl node req_id (fun pr -> P_cache pr) in
               send_msg ?ctx cl node ~dst:from_node
                 (Message.Cache_fetch
                    { req_id; target = name; reply_to = node.nd_id });
               match await_reply ~timeout:ack_timeout reply with
               | Some (Some (type_name, repr)) ->
                 (* A version bump that raced the reply (e.g. the
                    unfreeze invalidation overtaking a delayed
                    [Cache_data]) makes the payload pre-thaw garbage:
                    discard it rather than install a stale replica. *)
                 if cache_epoch node name = epoch then
                   install_cached cl node name ~type_name ~repr
               | Some None | None -> ())))
  end

(* Serve the frozen representation if we still hold one; [None] tells
   the requester its hint went stale and nothing is cached. *)
let serve_fetch ?ctx cl node ~req_id ~target ~reply_to =
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
  send_msg ?ctx cl node ~dst:reply_to
    (Message.Cache_data { req_id; target; payload })
