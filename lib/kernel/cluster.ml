(* A running Eden system.  The kernel's mechanisms live in their own
   modules, each built on {!State} (node and object state, sending,
   reply slots, object construction and the type-code interface):

   - {!Coordinator}: the object's side of invocation;
   - {!Locate}: hints, forwarding, broadcast locate, the directory,
     move and replicate;
   - {!Checkpoint}: checkpoint rounds, crash, activation;
   - {!Rcache}: the frozen-replica cache;
   - {!Invoke}: the requester's side of invocation, request serving
     and object creation;
   - {!Membership}: epochs, join and decommission.

   This module builds the cluster, routes each arriving message to its
   mechanism, and exposes the public API, failure injection and
   introspection. *)

open Eden_util
open Eden_sim
open Eden_hw
open State
module Timeline = Eden_obs.Timeline

type t = State.t
type node_id = int

type options = State.options = {
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

(* Per-node journal ring size.  Generous enough that the chaos suite
   never wraps (wrapping only degrades trace completeness, it is not
   an error), small enough that the rings cycle within the cache: E20
   shows the journal's hot-path cost is dominated by the ring's cache
   footprint, and quadrupling this cap roughly doubles the overhead.
   [~journal_cap:0] disables retention entirely. *)
let default_journal_cap = 4096

(* The kernel operations type code reaches, fixed once per cluster. *)
let kernel_ops =
  {
    invoke = Invoke.do_invoke;
    create = Invoke.do_create;
    checkpoint = Checkpoint.do_checkpoint;
    checkpoint_async = Checkpoint.do_checkpoint_async;
    crash = Checkpoint.do_crash;
    move = Locate.do_move;
    replicate = Locate.do_replicate;
  }

(* -------------------------------------------------------------------- *)
(* Destruction: erase one node's knowledge of an object, killing any
   local replica.  (The primary, if any, is dismantled by the
   destroyer before the notices go out.) *)

let forget_object cl node target =
  (match Name.Table.find_opt node.nd_replicas target with
  | Some replica -> Coordinator.dismantle cl replica Error.No_such_object
  | None -> ());
  Rcache.invalidate_cached cl node target;
  Name.Table.remove node.nd_store target;
  forget_location node target;
  Name.Table.remove node.nd_clone_sites target;
  (* The destroy notice reaches the registry shard like everyone else:
     its entry dies with the object. *)
  Name.Table.remove node.nd_dir target

(* -------------------------------------------------------------------- *)
(* Message dispatch *)

(* Handlers that block (CPU, disk, activation) run as kernel processes
   and send [answer ()] back to [dst]; the rest run inline. *)
let serve ~ctx cl node name ~dst answer =
  ignore
    (spawn_kproc cl node ~name (fun () ->
         send_msg ~ctx cl node ~dst (answer ())))

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
             Invoke.serve_request ~ctx:hctx cl node msg))
    | Message.Inv_reply { inv_id; result; frozen_hint } ->
      Invoke.on_reply cl node ~src ~inv_id ~result ~frozen_hint
    | Message.Inv_nack { inv_id; target } ->
      Invoke.on_nack cl node ~src ~inv_id ~target
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
    | Message.Locate_request { req_id; target; reply_to } ->
      Locate.serve_locate ~ctx:hctx cl node ~req_id ~target ~reply_to
    | Message.Locate_reply { req_id; target; at_node; residence; version } ->
      Locate.on_locate_reply cl node ~req_id ~target ~at_node ~residence
        ~version
    | Message.Create_request { req_id; type_name; init; reply_to } ->
      serve ~ctx:hctx cl node "k:create" ~dst:reply_to (fun () ->
          let result = Invoke.create_local cl node type_name init in
          Message.Create_reply { req_id; result })
    | Message.Create_reply { req_id; result } ->
      fill_reply node req_id
        (function P_create pr -> Some pr | _ -> None)
        result
    | Message.Move_transfer
        { type_name; repr; from_node; transfer_id; target = _; frozen = _;
          reliability = _ } ->
      serve ~ctx:hctx cl node "k:move_in" ~dst:from_node (fun () ->
          let accepted = Locate.accept_transfer cl node ~type_name ~repr in
          Message.Move_ack { transfer_id; accepted })
    | Message.Move_ack { transfer_id; accepted } ->
      fill_reply node transfer_id ack_slot accepted
    | Message.Ckpt_write
        { req_id; target; type_name; repr; version; reliability; frozen;
          reply_to } ->
      serve ~ctx:hctx cl node "k:ckpt" ~dst:reply_to (fun () ->
          let ok =
            Checkpoint.write_snapshot cl node ~target ~type_name ~repr ~version
              ~reliability ~frozen ~passive:false
          in
          Message.Ckpt_ack { req_id; ok })
    | Message.Ckpt_delta
        { req_id; target; delta; base_version; version; reliability; frozen;
          reply_to; type_name = _ } ->
      serve ~ctx:hctx cl node "k:ckpt_delta" ~dst:reply_to (fun () ->
          let ok =
            Checkpoint.apply_delta_snapshot cl node ~target ~base_version
              ~version ~delta ~reliability ~frozen
          in
          Message.Ckpt_ack { req_id; ok })
    | Message.Ckpt_ack { req_id; ok } -> fill_reply node req_id ack_slot ok
    | Message.Ckpt_delete { target } -> Name.Table.remove node.nd_store target
    | Message.Ckpt_mark { target; passive; version } ->
      Checkpoint.on_mark node ~target ~passive ~version
    | Message.Replica_install
        { target; type_name; repr; transfer_id; from_node } ->
      serve ~ctx:hctx cl node "k:replica" ~dst:from_node (fun () ->
          let accepted =
            Locate.install_replica cl node ~target ~type_name ~repr
          in
          Message.Replica_ack { transfer_id; accepted })
    | Message.Replica_ack { transfer_id; accepted } ->
      fill_reply node transfer_id ack_slot accepted
    | Message.Destroy_notice { target } -> forget_object cl node target
    | Message.Cache_fetch { req_id; target; reply_to } ->
      Rcache.serve_fetch ~ctx:hctx cl node ~req_id ~target ~reply_to
    | Message.Cache_data { req_id; payload; target = _ } ->
      fill_reply node req_id
        (function P_cache pr -> Some pr | _ -> None)
        payload
    | Message.Cache_invalidate { target } ->
      (* The version bump from unfreeze.  Purge location knowledge,
         the cached replica and the clone set (the object can mutate
         again, so speculative reads are over); carries no request id
         and never touches [nd_pending], so it cannot collide with an
         in-flight request. *)
      forget_location node target;
      Name.Table.remove node.nd_clone_sites target;
      Rcache.invalidate_cached cl node target
    | Message.Dir_put { req_id; target; home; replicas; lease } ->
      Locate.on_dir_put node ~req_id ~target ~home ~replicas ~lease
    | Message.Dir_get { req_id; target; reply_to } ->
      Locate.serve_dir_get ~ctx:hctx cl node ~req_id ~target ~reply_to
    | Message.Dir_nack { req_id; target; home } ->
      Locate.on_dir_nack node ~req_id ~target ~home
    | Message.Epoch_announce { epoch; members = _ } ->
      Membership.on_announce ~ctx:hctx cl node ~epoch
  end

(* -------------------------------------------------------------------- *)
(* Cluster construction *)

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
    Coordinator.spawn_coordinator cl obj;
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
      let utilisation f =
        let over = Engine.now cl.eng in
        if Time.is_zero over then 0.0 else f ~over
      in
      g "hw.cpu_utilisation" (fun () ->
          utilisation (Cpu.utilisation (Machine.cpu machine)));
      c "hw.cpu_jobs" (fun () -> Cpu.jobs_completed (Machine.cpu machine));
      g "hw.disk_utilisation" (fun () ->
          utilisation (Disk.utilisation (Machine.disk machine)));
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
    cl.nodes

(* Wire-level verdicts (drops, duplicates, delays, coalesced batches)
   are journalled at the sending node.  They root their own trace: the
   injector fires below the layer that knows contexts.  With profiling
   on, every payload's departure and injected hold is journalled too,
   on the payload's own trace, so the attribution walk can split
   coalescer hold and injected hold out of a request's wire time.
   Unarmed, the net layer's only overhead is a [None] test. *)
let install_wire_hooks cl =
  let record src ?ctx kind =
    if src >= 0 && src < Array.length cl.nodes then
      ignore (jrecord cl cl.nodes.(src) ?ctx kind)
  in
  Transport.set_event_hook cl.c_lan
    (Some
       (function
       | Transport.Ev_drop { src; dst; msgs } ->
         record src (Journal.Drop { dst; msgs })
       | Transport.Ev_duplicate { src; dst; msgs } ->
         record src (Journal.Duplicate { dst; msgs })
       | Transport.Ev_delay { src; dst; msgs; by = _ } ->
         record src (Journal.Delay { dst; msgs })
       | Transport.Ev_coalesce { src; dst; msgs } ->
         record src (Journal.Coalesce { dst; msgs })));
  if cl.opts.use_profiling then
    let each items f =
      List.iter (fun (m : Message.traced) -> f m.Message.tr_ctx) items
    in
    Transport.set_wire_hook cl.c_lan
      (Some
         (function
         | Transport.Wv_depart { src; dst; msgs; items } ->
           each items (fun ctx ->
               record src ?ctx (Journal.Net_flush { dst; msgs }))
         | Transport.Wv_hold { src; dst; by; items } ->
           each items (fun ctx ->
               record src ?ctx (Journal.Net_hold { dst; by }))))

(* The online attribution: each finished request adds its critical-path
   breakdown to one counter per category, plus its end-to-end total. *)
let profile_fold reg =
  let parts =
    Array.of_list
      (List.map
         (fun c -> Metrics.counter reg (Health.profile_counter c))
         Critical.categories)
  in
  let total = Metrics.counter reg Health.profile_total in
  Critical.fold (fun bd ->
      for i = 0 to Array.length parts - 1 do
        Metrics.add parts.(i) bd.Critical.bd_parts.(i)
      done;
      Metrics.add total bd.Critical.bd_total_ns)

(* The health plane is strictly opt-in: without [~health] no sampler
   is installed and the hot paths skip the sketch feed, so existing
   runs keep their exact cost profile. *)
let install_health cl hcfg =
  let reg = cl.c_metrics in
  let hp_topk =
    Array.init (Array.length cl.nodes) (fun _ ->
        Topk.create ~capacity:topk_capacity)
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
  Engine.every cl.eng ~interval:hcfg.Health.hc_tick (fun () -> Health.tick h)

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
    List.mapi (fun seg size -> List.init size (fun _ -> seg)) segment_sizes
    |> List.concat |> Array.of_list
  in
  let eng = Engine.create ~seed () in
  let lan =
    Transport.create_net ?params:net ?coalesce eng
      ~segments:(List.length segment_sizes)
  in
  let jsink = Journal.sink () in
  let nodes =
    Array.of_list
      (List.mapi
         (fun i cfg ->
           make_node eng lan jsink ~journal_cap ~segment:segment_of_index.(i)
             cfg)
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
      c_ops = kernel_ops;
      c_node_objects = [||];
      n_inv = 0;
      n_remote = 0;
      c_metrics = reg;
      c_lat =
        Metrics.histogram reg ~buckets:latency_buckets
          "eden.invocation_latency_s";
      c_nm = Array.init n_nodes (make_node_metrics reg);
      c_health = None;
      c_hedge =
        (if options.speculate.Api.sp_hedge then Some (Invoke.hedge_state ())
         else None);
      c_profile =
        (if options.use_profiling then Some (profile_fold reg) else None);
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
    Engine.every eng ~interval:Invoke.hedge_tick (fun () ->
        Invoke.hedge_close_tick hs));
  register_collectors cl;
  Array.iter
    (fun node ->
      Transport.on_message node.nd_tp (fun ~src msg ->
          on_message cl node ~src msg))
    nodes;
  install_wire_hooks cl;
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
  Option.iter (install_health cl) health;
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

(* -------------------------------------------------------------------- *)
(* Kernel primitives *)

let create_object cl ~node ~type_name init =
  Invoke.create_local cl (node_of cl node) type_name init

let invoke cl ~from ?timeout ?retry cap ~op args =
  Invoke.do_invoke cl ~from ?timeout ?retry cap ~op args

let invoke_async cl ~from ?timeout ?retry cap ~op args =
  State.invoke_async cl ~from ?timeout ?retry cap ~op args

(* The external management operations act on the live primary, found
   omnisciently, once the capability shows [right] (and [to_node], for
   the mobility operations, names a node). *)
let with_primary ?to_node cl cap right opname f =
  if not (Rights.mem right (Capability.rights cap)) then
    Error (Error.Rights_violation opname)
  else if not (Option.fold ~none:true ~some:(valid_node cl) to_node) then
    Error (Error.Move_refused "no such node")
  else
    match find_primary cl (Capability.name cap) with
    | None -> Error Error.No_such_object
    | Some obj -> f obj

let move cl cap ~to_node =
  with_primary ~to_node cl cap Rights.Kernel_move "move" (fun obj ->
      Locate.do_move cl obj ~to_node ~self_inflight:false)

let freeze cl cap =
  with_primary cl cap Rights.Kernel_checkpoint "freeze" (fun obj ->
      obj.ob_frozen <- true;
      Ok ())

let unfreeze cl cap =
  with_primary cl cap Rights.Kernel_checkpoint "unfreeze" (fun obj ->
      let name = Capability.name cap in
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
        Rcache.invalidate_cached cl node name;
        bcast_msg cl node (Message.Cache_invalidate { target = name });
        Ok ()
      end)

let replicate cl cap ~to_node =
  with_primary ~to_node cl cap Rights.Kernel_checkpoint "replicate" (fun obj ->
      Locate.do_replicate cl obj ~to_node)

let checkpoint_of cl cap =
  with_primary cl cap Rights.Kernel_checkpoint "checkpoint"
    (Checkpoint.do_checkpoint cl)

let checkpoint_async_of cl cap =
  with_primary cl cap Rights.Kernel_checkpoint "checkpoint"
    (Checkpoint.do_checkpoint_async cl)

let destroy cl cap =
  if not (Rights.mem Rights.Kernel_destroy (Capability.rights cap)) then
    Error (Error.Rights_violation "destroy")
  else begin
    let name = Capability.name cap in
    (* Dismantle the primary without marking anything passive: there
       will be nothing to reincarnate from. *)
    let primary = find_primary cl name in
    Option.iter
      (fun obj -> Coordinator.dismantle cl obj Error.No_such_object)
      primary;
    (* Existence check is omniscient (control plane); the purge itself
       travels as a broadcast notice, so a powered-off node keeps its
       snapshot — a real 1981 limitation, noted in DESIGN.md. *)
    let existed =
      Option.is_some primary
      || Array.exists
           (fun node ->
             node.nd_up
             && (Name.Table.mem node.nd_store name
                || Name.Table.mem node.nd_replicas name))
           cl.nodes
    in
    (match Array.find_opt (fun node -> node.nd_up) cl.nodes with
    | None -> ()
    | Some origin ->
      forget_object cl origin name;
      bcast_msg cl origin (Message.Destroy_notice { target = name }));
    if existed then Ok () else Error Error.No_such_object
  end

(* -------------------------------------------------------------------- *)
(* Failure injection *)

let crash_node cl i =
  let node = node_of cl i in
  if node.nd_up then begin
    node.nd_up <- false;
    Transport.set_up node.nd_tp false;
    let objects = [ node.nd_active; node.nd_replicas; node.nd_cache ] in
    objects
    |> List.concat_map (fun t -> Name.Table.fold (fun _ o acc -> o :: acc) t [])
    |> List.iter (fun obj ->
           obj.ob_status <- Dead;
           (* Volatile state evaporates: no replies, no notifications. *)
           Coordinator.kill_object_procs cl obj);
    List.iter Name.Table.reset objects;
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

let restart_node ?(rebuild = false) cl i =
  let node = node_of cl i in
  if not node.nd_up then begin
    node.nd_up <- true;
    Transport.set_up node.nd_tp true;
    Membership.catch_up cl node;
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
             Checkpoint.rebuild_from_store cl node))
  end

let set_disk_failed cl i failed =
  let node = node_of cl i in
  if node.nd_disk_ok = failed then node.nd_disk_ok <- not failed

let disk_ok cl i = (node_of cl i).nd_disk_ok

(* -------------------------------------------------------------------- *)
(* Online reconfiguration (see {!Membership}) *)

let epoch cl = cl.c_epoch
let members cl = cl.c_members
let is_member cl i = List.mem (node_of cl i).nd_id cl.c_members
let is_draining cl i = (node_of cl i).nd_draining
let join_node = Membership.join

(* Blocking.  Drain and leave, then power off. *)
let decommission_node cl i =
  match Membership.leave cl i with
  | Ok () ->
    crash_node cl i;
    Ok ()
  | Error _ as e -> e

(* -------------------------------------------------------------------- *)
(* Introspection *)

let where_is cl cap =
  Option.map (fun obj -> obj.ob_home) (find_primary cl (Capability.name cap))

let is_active cl cap = where_is cl cap <> None

(* The canonical owner at the current epoch — no liveness detour, so
   the answer is a pure function of the membership (for tests and
   tooling; the kernel's own routing detours past downed shards). *)
let directory_shard cl name =
  Directory.shard (Locate.ring_of cl cl.c_epoch) name

let set_dir_nack_fallback cl enabled = cl.c_dir_nack_fallback <- enabled

let sites_where cl p =
  Array.to_list cl.nodes
  |> List.filter_map (fun node -> if p node then Some node.nd_id else None)

let replica_sites cl cap =
  let name = Capability.name cap in
  sites_where cl (fun node ->
      node.nd_up && Name.Table.mem node.nd_replicas name)

let checkpoint_sites cl cap =
  let name = Capability.name cap in
  sites_where cl (fun node -> Name.Table.mem node.nd_store name)
let active_objects cl i = Name.Table.length (node_of cl i).nd_active
let stats_invocations cl = cl.n_inv
let stats_remote_invocations cl = cl.n_remote
let metrics cl = cl.c_metrics
let spans cl = cl.c_metrics
let metrics_snapshot cl =
  Eden_obs.Snapshot.take ~at:(Engine.now cl.eng) cl.c_metrics

let journal cl i = (node_of cl i).nd_journal
let journals cl =
  Array.to_list (Array.map (fun node -> node.nd_journal) cl.nodes)
let timeline cl = Timeline.assemble (journals cl)

let journal_dropped cl =
  Array.fold_left
    (fun acc node -> acc + Journal.dropped node.nd_journal)
    0 cl.nodes

let health cl = Option.map (fun hp -> hp.hp_health) cl.c_health

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

(* -------------------------------------------------------------------- *)
(* Running *)

let in_process cl ?(name = "driver") f = Engine.spawn cl.eng ~name f
let run ?until cl = Engine.run ?until cl.eng
