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

open State

(* Move [node]'s view to [epoch] (journalled: invariant 7 demands
   strict increase per node). *)
let adopt cl node ?ctx epoch =
  node.nd_epoch <- epoch;
  Metrics.incr (nm cl node).m_epoch_bumps;
  jrecord cl node ?ctx (Journal.Epoch_bump { epoch })

let bump_epoch cl node ~members =
  cl.c_epoch <- cl.c_epoch + 1;
  cl.c_members <- members;
  Hashtbl.replace cl.c_rings cl.c_epoch (Directory.make ~nodes:members ());
  let ev = adopt cl node cl.c_epoch in
  bcast_msg ~ctx:(Tracectx.root ev) cl node
    (Message.Epoch_announce { epoch = cl.c_epoch; members })

(* Adopt a newer membership view.  Epochs are totally ordered, so the
   highest one wins regardless of delivery order — a delayed or
   duplicated announce from a past reconfiguration is simply ignored.
   The ring for the adopted epoch was cached cluster-side by the
   initiator; the member list on the wire is what a real kernel would
   rebuild it from. *)
let on_announce ?ctx cl node ~epoch =
  if epoch > node.nd_epoch then ignore (adopt cl node ?ctx epoch)

(* A node that slept through reconfigurations catches up at boot (a
   real kernel would learn the epoch from its first exchange). *)
let catch_up cl node =
  if cl.c_epoch > node.nd_epoch then ignore (adopt cl node cl.c_epoch)

let join cl i =
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
   home to the name's registry shard), then bump the epoch without
   this node.  The caller powers it off.  Traffic keeps flowing
   throughout — requests during a move queue and forward as usual.  An
   object whose move fails stays put and relies on its fresh
   checkpoint for reincarnation after the power-off. *)
let leave cl i =
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
            ignore (Checkpoint.do_checkpoint cl obj);
            match Locate.do_move cl obj ~to_node ~self_inflight:false with
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
    Ok ()
  end
