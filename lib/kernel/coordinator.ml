(* The object's side of invocation (paper sec. 4.2): each active object
   has a coordinator that admits incoming work under the type's
   operation classes and runs each admitted request as its own
   invocation process; results travel back along the work's reply
   route.  Also the object's lifecycle around it: starting the
   coordinator and behaviours, draining for a move, and dismantling. *)

open Eden_util
open Eden_sim
open Eden_hw
open State

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

(* Deliver [result] from [node] along [route]; [frozen] is the reply's
   frozen hint. *)
let deliver_reply_at ?ctx cl node ~frozen route result =
  match route with
  | Reply_local pr -> ignore (Promise.fill pr result)
  | Reply_remote { requester; inv_id } ->
    if requester = node.nd_id then
      (* The object moved to the requester's node mid-request. *)
      resolve_inv_pending cl node ~src:node.nd_id inv_id.Message.seq
        (Inv_result (result, frozen))
    else
      send_msg ?ctx cl node ~dst:requester
        (Message.Inv_reply { inv_id; result; frozen_hint = frozen })

let deliver_reply ?ctx cl obj route result =
  deliver_reply_at ?ctx cl (home cl obj) ~frozen:obj.ob_frozen route result

let fail_work cl obj w error =
  span_enter cl w Span.Reply;
  deliver_reply ?ctx:w.w_ctx cl obj w.w_route (Error error)

(* -------------------------------------------------------------------- *)
(* Dispatching invocations inside an object *)

let class_state obj class_name =
  ( find_or_add obj.ob_class_running class_name (fun () -> ref 0),
    find_or_add obj.ob_class_queue class_name Fifo.create )

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

(* Profiling: journal [kind] on [w]'s causal chain and re-parent the
   chain through it, so the gap before it shows on the critical path. *)
let mark_work cl node w kind =
  match w.w_ctx with
  | Some c ->
    let ev = jrecord cl node ~ctx:c kind in
    w.w_ctx <- Some (Tracectx.with_parent c ~parent:ev)
  | None -> ()

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
      ~name:(Name.to_string obj.ob_name ^ "." ^ w.w_op)
      (fun () ->
        let self = Engine.self () in
        Fun.protect
          ~finally:(fun () -> finish_invocation cl obj spec self)
          (fun () ->
            (* Mark the instant execution actually begins: the gap back
               to the triggering receive (or stall) is queue residency,
               and the reply extends the chain through the mark. *)
            if cl.opts.use_profiling then
              mark_work cl node w (Journal.Work_start { op = w.w_op });
            Hashtbl.replace obj.ob_inflight
              (Engine.Pid.to_int self)
              w;
            (match w.w_span with
            | Some sp ->
              Span.enter sp Span.Execute ~at:(Engine.now cl.eng);
              Hashtbl.replace cl.c_span_ctx (Engine.Pid.to_int self) sp
            | None -> ());
            let result =
              try op.Typemgr.op_handler (Lazy.force obj.ob_ctx) w.w_args with
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
  obj.ob_proc_pids <- drop_pid self obj.ob_proc_pids;
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
let admit cl obj w =
  let node = home cl obj in
  span_enter cl w Span.Dispatch;
  Metrics.incr (nm cl node).m_dispatch;
  consume node (costs node).Costs.invoke_dispatch_cpu;
  match obj.ob_status with
  | Dead -> fail_work cl obj w Error.Object_crashed
  | Draining ->
    (* The request is about to sit behind a draining object: the wait
       until reactivation is attributed to drain, not plain queueing. *)
    if cl.opts.use_profiling then
      mark_work cl node w
        (Journal.Drain_stall { target = Name.to_string obj.ob_name });
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

let enqueue_work cl obj w =
  if obj.ob_status = Dead then fail_work cl obj w Error.Object_crashed
  else begin
    cl.n_inv <- cl.n_inv + 1;
    span_enter cl w Span.Queue;
    let ok = Mailbox.try_send obj.ob_queue w in
    assert ok
  end

(* -------------------------------------------------------------------- *)
(* Lifecycle *)

let spawn_coordinator cl obj =
  let rec loop () =
    (match Mailbox.recv obj.ob_queue with
    | None -> ()
    | Some w -> admit cl obj w);
    loop ()
  in
  obj.ob_coordinator <-
    Some (spawn_daemon cl ~name:("coord:" ^ Name.to_string obj.ob_name) loop)

let spawn_behaviours cl obj =
  if not obj.ob_is_replica then
    List.iter
      (fun b ->
        let pid =
          spawn_daemon cl
            ~name:
              (Printf.sprintf "%s!%s" (Name.to_string obj.ob_name)
                 b.Typemgr.b_name)
            (fun () -> b.Typemgr.b_body (Lazy.force obj.ob_ctx))
        in
        obj.ob_behaviour_pids <- pid :: obj.ob_behaviour_pids)
      (Typemgr.behaviours obj.ob_type)

let start_primary cl node obj =
  spawn_coordinator cl obj;
  spawn_behaviours cl obj;
  Name.Table.replace node.nd_active obj.ob_name obj

(* Stop admitting work (new requests are stashed) and wait until at
   most [floor] invocations are still running. *)
let drain obj ~floor =
  obj.ob_status <- Draining;
  while obj.ob_running_total > floor do
    ignore (Condition.await obj.ob_drained)
  done

(* Resume after a drain: requests stashed meanwhile are re-admitted. *)
let resume obj =
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

let fail_outstanding cl obj error =
  obj.ob_status <- Dead;
  List.iter (fun w -> fail_work cl obj w error) (outstanding_works obj)

let kill_object_procs cl obj =
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
  let mine, others =
    match Engine.self () with
    | me -> List.partition (fun p -> Engine.Pid.equal p me) pids
    | exception Invalid_argument _ -> ([], pids)
  in
  List.iter (fun p -> Engine.kill cl.eng p) others;
  List.iter (fun p -> Engine.kill cl.eng p) mine

let unregister cl obj =
  let node = home cl obj in
  if obj.ob_is_replica then Name.Table.remove node.nd_replicas obj.ob_name
  else Name.Table.remove node.nd_active obj.ob_name;
  Memory.release node.nd_mem obj.ob_mem;
  obj.ob_mem <- 0

(* Tear the object down for good: nothing becomes passive. *)
let dismantle cl obj error =
  fail_outstanding cl obj error;
  unregister cl obj;
  kill_object_procs cl obj
