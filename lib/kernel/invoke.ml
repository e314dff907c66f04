(* Location-independent invocation (paper sec. 4.2), the requester's
   side and the request's route to the coordinator: locating the
   target, request and reply, speculative clones and hedged retries,
   the timeout retry policy, and the serving node's idempotence gate
   and forwarding.  Object creation rides the same request/reply path. *)

open Eden_util
open Eden_sim
open Eden_hw
open State

let max_hops = 8

(* -------------------------------------------------------------------- *)
(* Hedge telemetry (see {!State.hedge_state}) *)

(* Hedge telemetry window: 1000 one-millisecond ticks.  The window
   must out-span a degradation episode, or the quantile chases the
   inflated latencies — each slow reply pushes the threshold past the
   next, and hedging disarms itself exactly when it is needed.  A
   second of history keeps the healthy baseline in the estimate. *)
let hedge_tick = Time.ms 1
let hedge_ticks = 1000

let hedge_state () =
  {
    hs_hist = Window.Hist.create ~ticks:hedge_ticks ~bounds:latency_buckets;
    hs_cum = Array.make (Array.length latency_buckets) 0;
    hs_cum_over = 0;
    hs_prev = Array.make (Array.length latency_buckets) 0;
    hs_prev_over = 0;
  }

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
(* The requester *)

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
    let name = Capability.name cap in
    Locate.discover_clone_sites ?ctx cl node name;
    Locate.learn_clone_site cl node name from_node;
    if cl.opts.use_replica_cache && not (Name.Table.mem node.nd_cache name)
    then begin
      (* The target is immutable and we paid the round trip anyway:
         count the miss and fetch a local replica in the background. *)
      Metrics.incr (nm cl node).m_cache_miss;
      Rcache.cache_fetch ?ctx cl node name ~from_node
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
    cap ~op args =
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
      }
  in
  (* Each copy of the request pays its own marshalling. *)
  let send_copy send ~to_site =
    consume node
      (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes args));
    send ?ctx cl node ~dst:to_site (request ~to_site)
  in
  cl.n_remote <- cl.n_remote + 1;
  Metrics.incr (nm cl node).m_remote;
  let t0 = Engine.now cl.eng in
  let finish ~from_node outcome =
    match outcome with
    | None ->
      (* The node we trusted never answered: distrust the cached
         location so the next attempt re-locates instead of sending
         into the void again. *)
      forget_location node name;
      `Result (Error Error.Timeout)
    | Some (Inv_result (r, frozen_hint)) ->
      hedge_observe cl (Time.diff (Engine.now cl.eng) t0);
      absorb_reply ?ctx cl node ~from_node cap r frozen_hint;
      `Result r
    | Some Inv_nacked -> `Nacked
  in
  if clones = [] then begin
    let reply = expect_reply cl node inv_id (fun pr -> P_invoke pr) in
    send_copy send_msg ~to_site:dst;
    let hedge_after =
      if not cl.opts.speculate.Api.sp_hedge then None
      else
        match (hedge_threshold cl, remaining cl.eng deadline) with
        | None, _ -> None
        | Some h, Some left when Time.(left <= h) -> None
        | (Some _ as h), _ -> h
    in
    (match hedge_after with
    | None -> ()
    | Some h -> (
      match Promise.await ~timeout:h reply.rp_promise with
      | Some _ -> ()
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
        send_copy send_msg_now ~to_site:hedge_dst));
    finish ~from_node:dst
      (await_reply ?timeout:(remaining cl.eng deadline) reply)
  end
  else begin
    (* Speculative fan-out: primary first, then the clone sites. *)
    let sites = dst :: clones in
    let count = List.length sites in
    let reply =
      expect_reply cl node inv_id (fun pr ->
          P_clone { cp_pr = pr; cp_count = count; cp_nacks = 0 })
    in
    Metrics.incr (nm cl node).m_clone_fanouts;
    ignore (jrecord cl node ?ctx (Journal.Clone_fanout { op; sites = count }));
    List.iter (fun site -> send_copy send_msg ~to_site:site) sites;
    let outcome = await_reply ?timeout:(remaining cl.eng deadline) reply in
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

let dispatch_local_and_wait ?ctx cl obj ~deadline cap ~op args =
  let pr = Promise.create cl.eng in
  Coordinator.enqueue_work cl obj
    {
      w_op = op;
      w_args = args;
      w_presented = Capability.rights cap;
      w_route = Reply_local pr;
      w_ctx = ctx;
    };
  match Promise.await ?timeout:(remaining cl.eng deadline) pr with
  | Some r -> r
  | None -> Error Error.Timeout

let do_invoke cl ~from ?timeout ?(retry = Api.no_retry) ?caller cap ~op args =
  let node = node_of cl from in
  if not node.nd_up then Error Error.Node_down
  else begin
    let name = Capability.name cap in
    let tname = Name.to_string name in
    Metrics.incr (nm cl node).m_inv;
    (* Feed the origin node's hot-object sketch; the rendered name is
       shared with the journal event below, so the health plane adds
       no allocation of its own here. *)
    (match cl.c_health with
    | Some hp -> Topk.add hp.hp_topk.(from) tname
    | None -> ());
    (* The invocation's root journal event: every send, retry and
       downstream handler event hangs off this trace id, and the
       latency histogram measures from it. *)
    let began = Engine.now cl.eng in
    let ictx =
      Tracectx.root
        (jrecord cl node (Journal.Inv_begin { op; target = tname; caller }))
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
      let dispatch obj =
        dispatch_local_and_wait ~ctx:ictx cl obj ~deadline cap ~op args
      in
      consume node (costs node).Costs.locate_lookup_cpu;
      (* Local fast paths: active object, replica, or authoritative
         passive snapshot on this very node. *)
      match Name.Table.find_opt node.nd_active name with
      | Some obj -> dispatch obj
      | None -> (
        match Name.Table.find_opt node.nd_replicas name with
        | Some obj -> dispatch obj
        | None -> (
        match
          if cl.opts.use_replica_cache then
            Name.Table.find_opt node.nd_cache name
          else None
        with
        | Some obj ->
          Metrics.incr (nm cl node).m_cache_hit;
          dispatch obj
        | None -> (
          let local_passive =
            match Name.Table.find_opt node.nd_store name with
            | Some snap when snap.ss_passive -> true
            | Some _ | None -> false
          in
          if local_passive then
            match Checkpoint.activate cl node name with
            | Ok obj -> dispatch obj
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
              match Locate.locate ~ctx:ictx cl node name ~deadline with
              | `Found (at_node, residence) when at_node <> node.nd_id ->
                if cl.opts.use_hint_cache then
                  Name.Table.replace node.nd_hints name at_node;
                if residence = Message.Res_active then
                  Locate.dir_publish ~ctx:ictx cl node name ~home:at_node
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
                if not (use_dir && Locate.dir_enabled cl) then
                  broadcast_locate ()
                else (
                  match Locate.dir_resolve ~ctx:ictx cl node name ~deadline with
                  | `Hit (dhome, replicas) when dhome <> node.nd_id ->
                    Metrics.incr (nm cl node).m_dir_hits;
                    ignore
                      (jrecord cl node ~ctx:ictx
                         (Journal.Dir_hit { target = tname; home = dhome }));
                    List.iter (Locate.learn_clone_site cl node name) replicas;
                    (* A directory answer is a hint, never activation
                       authority: only a full broadcast quiet window
                       may authorise reincarnation. *)
                    `Send (dhome, false, true)
                  | (`Hit _ | `Miss | `Dead) as answer ->
                    (* A miss, a dead shard, or a registry naming this
                       very node although every local fast path missed
                       (a stale self-entry): fall back. *)
                    if answer = `Miss then
                      ignore
                        (jrecord cl node ~ctx:ictx
                           (Journal.Dir_miss { target = tname }));
                    dir_fallback ();
                    broadcast_locate ())
            in
            match dst with
            | `Nowhere -> Error Error.No_such_object
            | `Deadline -> Error Error.Timeout
            | `Activate -> (
              match Checkpoint.activate cl node name with
              | Ok obj -> dispatch obj
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
                  ~may_activate cap ~op args
              with
              | `Result r -> r
              | `Nacked ->
                Metrics.incr (nm cl node).m_nacks;
                forget_location node name;
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
                    Locate.dir_invalidate ~ctx:ictx cl node name
                      ~stale_home:dst;
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
      match
        attempt ~deadline ~nack_budget:2 ~use_dir:(Locate.dir_enabled cl)
      with
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
    Metrics.observe_time cl.c_lat (Time.diff (Engine.now cl.eng) began);
    r
  end

(* -------------------------------------------------------------------- *)
(* The serving node *)

(* A request arriving over the wire: the exactly-once gate, then the
   local object (reincarnated if need be), a forwarding hop, or a
   nack. *)
let serve_request ?ctx cl node msg =
  match msg with
  | Message.Inv_request
      { inv_id; target; op; args; presented; reply_to; hops; may_activate }
    -> (
    let route = Reply_remote { requester = reply_to; inv_id } in
    let w =
      { w_op = op; w_args = args; w_presented = presented; w_route = route;
        w_ctx = ctx }
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
      Coordinator.enqueue_work cl obj w
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
          match Checkpoint.activate cl node target with
          | Ok obj -> admit obj
          | Error Error.Disk_failed ->
            (* We cannot serve from a failed store; nack so the
               requester re-locates and finds a healthier checksite. *)
            nack ()
          | Error e ->
            Coordinator.deliver_reply_at cl node ~frozen:false route (Error e)
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
                 });
            (* Repair the requester's knowledge of the new location. *)
            if reply_to <> node.nd_id then
              send_msg ?ctx cl node ~dst:reply_to
                (Message.Hint_update { target; at_node = next })
          | Some _ | None -> nack ()
        end))
    end)
  | _ -> raise (Fatal "serve_request: not an invocation request")

(* Same origin discipline for replies and nacks: sequence numbers are
   node-local, so only an answer echoing one of OUR request ids may
   resolve pending state.  A foreign-origin answer — e.g. a cancelled
   clone's reply finally surfacing somewhere it was never addressed —
   must not resolve an unrelated request that happens to share the
   sequence number. *)
let on_reply cl node ~src ~(inv_id : Message.request_id) ~result ~frozen_hint =
  if inv_id.origin = node.nd_id then
    Coordinator.resolve_inv_pending cl node ~src inv_id.seq
      (Inv_result (result, frozen_hint))
  else Metrics.incr (nm cl node).m_orphans

(* Nack-after-crash: whatever routed us there is stale.  Purge the hint
   even when the pending entry already timed out, or a
   crashed-and-forgotten location would be re-trusted forever.  The
   same evidence invalidates any cached frozen replica and evicts the
   nacking site from the clone set. *)
let on_nack cl node ~src ~(inv_id : Message.request_id) ~target =
  forget_location node target;
  Rcache.invalidate_cached cl node target;
  Locate.forget_clone_site node target src;
  if inv_id.origin = node.nd_id then
    Coordinator.resolve_inv_pending cl node ~src inv_id.seq Inv_nacked

(* -------------------------------------------------------------------- *)
(* Object creation *)

(* Create a brand-new object on [node].  Blocking. *)
let create_local cl node type_name init =
  if not node.nd_up then Error Error.Node_down
  else
    match reserve_instance cl node type_name init with
    | Error e -> Error e
    | Ok (tm, footprint) ->
      consume node (costs node).Costs.process_create_cpu;
      let name = Name.make ~birth_node:node.nd_id ~serial:(next_seq node) in
      let obj =
        build_obj cl ~name ~tm ~repr:init ~frozen:false
          ~reliability:Reliability.Local ~home:node.nd_id ~is_replica:false
          ~mem:footprint
      in
      Coordinator.start_primary cl node obj;
      Locate.dir_publish cl node name ~home:node.nd_id ~replicas:[];
      Ok (Capability.make name Rights.all)

(* Create an object on a possibly-remote node ([target] is a valid node
   id).  Blocking. *)
let do_create cl ~from ~node:target ~type_name init =
  let origin = node_of cl from in
  if not origin.nd_up then Error Error.Node_down
  else if target = from then create_local cl origin type_name init
  else begin
    let req_id = new_request_id origin in
    let reply = expect_reply cl origin req_id (fun pr -> P_create pr) in
    consume origin
      (Costs.copy_cost (costs origin) ~bytes:(Value.size_bytes init));
    send_msg cl origin ~dst:target
      (Message.Create_request { req_id; type_name; init; reply_to = from });
    match await_reply ~timeout:ack_timeout reply with
    | None -> Error Error.Node_down
    | Some result -> result
  end
