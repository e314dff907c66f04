open Eden_util
open Eden_sim

(* A wire transfer carries either one message or a coalesced batch.
   Batches exist only between [flush_to] and delivery: the receiving
   endpoint unpacks them in order, so upper layers never see cargo. *)
type 'a cargo = One of 'a | Batch of 'a list

(* Every message travels inside an envelope carrying global addressing;
   [env_bridged] stops the bridge from re-forwarding a broadcast it has
   already carried. *)
type 'a envelope = {
  env_src : int;
  env_dst : int option;  (* None = broadcast *)
  env_bridged : bool;
  env_cargo : 'a cargo;
}

type fault = Pass | Drop | Duplicate | Delay of Time.t

(* Wire-level happenings an observability layer cannot see from the
   endpoints: fault-injector verdicts that actually bit, and batches
   leaving a coalescing queue.  A hold and a departure carry their
   payloads (each may carry a trace context), so a profiler can charge
   the span to the requests it delayed.  Reported through an optional
   hook so the net layer needs no dependency on the observability
   library. *)
type 'a event =
  | Ev_drop of { src : int; dst : int option; msgs : int }
  | Ev_duplicate of { src : int; dst : int option; msgs : int }
  | Ev_hold of {
      src : int;
      dst : int option;
      msgs : int;
      by : Time.t;
      items : 'a list;
    }
  | Ev_depart of { src : int; dst : int; msgs : int; items : 'a list }

type coalesce = {
  co_max_bytes : int;
  co_max_msgs : int;
  co_max_delay : Time.t;
}

let default_coalesce =
  { co_max_bytes = 1024; co_max_msgs = 8; co_max_delay = Time.us 300 }

(* One per-destination send queue.  [pb_gen] increments on every flush
   so a pending delay-timer can recognise that the batch it was armed
   for is already gone. *)
type 'a pending_batch = {
  mutable pb_items : 'a list;  (* newest first *)
  mutable pb_bytes : int;
  mutable pb_count : int;
  mutable pb_gen : int;
}

type 'a t = {
  eng : Engine.t;
  lans : 'a envelope Msglink.lan array;
  wrapped_size : 'a envelope -> int;
  bridge_latency : Time.t;
  coalesce : coalesce option;
  size : 'a -> int;
  (* global address -> (segment, local msglink address) *)
  mutable directory : (int * int) array;
  (* the bridge's own foot on each segment; [||] when segments = 1 *)
  mutable bridge_feet : 'a envelope Msglink.t array;
  mutable n_bridge_forwards : int;
  mutable n_bridge_drops : int;
  mutable n_coalesced_batches : int;
  mutable n_coalesced_messages : int;
  (* segments currently cut off from the bridge *)
  partitioned : bool array;
  mutable injector : (src:int -> dst:int option -> fault) option;
  mutable event_hook : ('a event -> unit) option;
}

type 'a endpoint = {
  ep_global : int;
  ep_segment : int;
  ep_link : 'a envelope Msglink.t;
  ep_net : 'a t;
  ep_queues : (int, 'a pending_batch) Hashtbl.t;
  mutable ep_handler : (src:int -> 'a -> unit) option;
}

let envelope_overhead = 12
let member_overhead = 4

(* The bridge received an envelope on [arrived_on]; carry it to where
   it belongs after the store-and-forward delay.  Partitioned segments
   are checked both on arrival and again when the forward fires, so a
   frame in flight across a partition is dropped, never delivered
   late.  Batches are carried opaquely: a cut mid-flight loses every
   member at once. *)
let bridge_carry net ~arrived_on env =
  match env.env_dst with
  | Some g ->
    let seg, local = net.directory.(g) in
    if seg <> arrived_on then begin
      if net.partitioned.(arrived_on) || net.partitioned.(seg) then
        net.n_bridge_drops <- net.n_bridge_drops + 1
      else begin
        net.n_bridge_forwards <- net.n_bridge_forwards + 1;
        Engine.schedule_after net.eng net.bridge_latency (fun () ->
            if net.partitioned.(arrived_on) || net.partitioned.(seg) then
              net.n_bridge_drops <- net.n_bridge_drops + 1
            else
              Msglink.send net.bridge_feet.(seg) ~dst:local
                { env with env_bridged = true })
      end
    end
  | None ->
    if not env.env_bridged then begin
      if net.partitioned.(arrived_on) then
        net.n_bridge_drops <- net.n_bridge_drops + 1
      else begin
        net.n_bridge_forwards <- net.n_bridge_forwards + 1;
        Engine.schedule_after net.eng net.bridge_latency (fun () ->
            if net.partitioned.(arrived_on) then
              net.n_bridge_drops <- net.n_bridge_drops + 1
            else
              Array.iteri
                (fun seg foot ->
                  if seg <> arrived_on then
                    if net.partitioned.(seg) then
                      net.n_bridge_drops <- net.n_bridge_drops + 1
                    else Msglink.broadcast foot { env with env_bridged = true })
                net.bridge_feet)
      end
    end

let create ?params ?(bridge_latency = Time.us 500) ?coalesce eng ~segments
    ~size =
  if segments < 1 then invalid_arg "Internet.create: need a segment";
  (match coalesce with
  | Some co when co.co_max_bytes < 1 || co.co_max_msgs < 1 ->
    invalid_arg "Internet.create: coalesce budgets must be positive"
  | _ -> ());
  let wrapped_size env =
    envelope_overhead
    + (match env.env_cargo with
      | One p -> size p
      | Batch ps ->
        List.fold_left (fun acc p -> acc + member_overhead + size p) 0 ps)
  in
  let lans = Array.init segments (fun _ -> Msglink.create_lan ?params eng) in
  let net =
    {
      eng;
      lans;
      wrapped_size;
      bridge_latency;
      coalesce;
      size;
      directory = [||];
      bridge_feet = [||];
      n_bridge_forwards = 0;
      n_bridge_drops = 0;
      n_coalesced_batches = 0;
      n_coalesced_messages = 0;
      partitioned = Array.make segments false;
      injector = None;
      event_hook = None;
    }
  in
  if segments > 1 then begin
    net.bridge_feet <-
      Array.mapi
        (fun i lan ->
          Msglink.attach lan ~name:(Printf.sprintf "bridge.%d" i)
            ~size:wrapped_size)
        lans;
    Array.iteri
      (fun seg foot ->
        Msglink.on_message foot (fun ~src:_ env ->
            bridge_carry net ~arrived_on:seg env))
      net.bridge_feet
  end;
  net

let segment_count net = Array.length net.lans

let deliver ep env =
  match ep.ep_handler with
  | None -> ()
  | Some f -> (
    match env.env_cargo with
    | One p -> f ~src:env.env_src p
    | Batch ps -> List.iter (fun p -> f ~src:env.env_src p) ps)

let attach net ~segment ~name =
  if segment < 0 || segment >= Array.length net.lans then
    invalid_arg "Internet.attach: no such segment";
  let link =
    Msglink.attach net.lans.(segment) ~name ~size:net.wrapped_size
  in
  let ep =
    {
      ep_global = Array.length net.directory;
      ep_segment = segment;
      ep_link = link;
      ep_net = net;
      ep_queues = Hashtbl.create 7;
      ep_handler = None;
    }
  in
  net.directory <-
    Array.append net.directory [| (segment, Msglink.address link) |];
  (* Filter at the link: segment broadcasts reach every station, and
     bridged unicasts are addressed precisely; drop anything that is
     not for us or that we sent ourselves. *)
  Msglink.on_message link (fun ~src:_ env ->
      match env.env_dst with
      | Some g when g <> ep.ep_global -> ()
      | Some _ | None -> if env.env_src <> ep.ep_global then deliver ep env);
  ep

let address ep = ep.ep_global
let segment_of_endpoint ep = ep.ep_segment

let segment_of_address net g =
  if g < 0 || g >= Array.length net.directory then
    invalid_arg "Internet.segment_of_address: unknown address"
  else fst net.directory.(g)

let on_message ep f = ep.ep_handler <- Some f

let emit net ev =
  match net.event_hook with None -> () | Some f -> f ev

(* Every transmission funnels through the (optional) fault injector, so
   a schedule-driven chaos controller can drop, duplicate, or delay any
   link without the sender noticing. *)
let apply_fault net ~src ~dst ~msgs ~items transmit =
  match net.injector with
  | None -> transmit ()
  | Some f -> (
    match f ~src ~dst with
    | Pass -> transmit ()
    | Drop -> emit net (Ev_drop { src; dst; msgs })
    | Duplicate ->
      emit net (Ev_duplicate { src; dst; msgs });
      transmit ();
      transmit ()
    | Delay d ->
      emit net (Ev_hold { src; dst; msgs; by = d; items });
      Engine.schedule_after net.eng d transmit)

(* [apply_fault] for one payload.  Only an injector's [Delay] verdict
   reads [items], so the list is built only when an injector is armed. *)
let apply_fault_one net ~src ~dst payload transmit =
  match net.injector with
  | None -> transmit ()
  | Some _ -> apply_fault net ~src ~dst ~msgs:1 ~items:[ payload ] transmit

let transmit_unicast ep ~dst cargo =
  let net = ep.ep_net in
  let seg, local = net.directory.(dst) in
  let env =
    { env_src = ep.ep_global; env_dst = Some dst; env_bridged = false;
      env_cargo = cargo }
  in
  if seg = ep.ep_segment then Msglink.send ep.ep_link ~dst:local env
  else
    Msglink.send ep.ep_link
      ~dst:(Msglink.address net.bridge_feet.(ep.ep_segment))
      env

(* Flush the queue for [dst]: pop everything, bump the generation (so a
   pending delay-timer turns into a no-op), and put the batch on the
   wire as ONE transfer.  The fault injector is consulted once for the
   whole transfer — a Drop verdict loses every member, exactly like a
   lost fragment loses a whole message one layer down. *)
let flush_to ep dst =
  match Hashtbl.find_opt ep.ep_queues dst with
  | None -> ()
  | Some pb ->
    if pb.pb_count > 0 then begin
      let items = List.rev pb.pb_items in
      let count = pb.pb_count in
      pb.pb_items <- [];
      pb.pb_bytes <- 0;
      pb.pb_count <- 0;
      pb.pb_gen <- pb.pb_gen + 1;
      if Msglink.is_up ep.ep_link then begin
        let net = ep.ep_net in
        if count > 1 then begin
          net.n_coalesced_batches <- net.n_coalesced_batches + 1;
          net.n_coalesced_messages <- net.n_coalesced_messages + count
        end;
        (* Reported for every flush, batch or not: a lone message
           released by the delay timer spent the full budget queued,
           and the profiler charges that span to the coalescer. *)
        emit net (Ev_depart { src = ep.ep_global; dst; msgs = count; items });
        let cargo = match items with [ p ] -> One p | ps -> Batch ps in
        apply_fault net ~src:ep.ep_global ~dst:(Some dst) ~msgs:count ~items
          (fun () -> transmit_unicast ep ~dst cargo)
      end
    end

let flush ep =
  let dsts = Hashtbl.fold (fun d _ acc -> d :: acc) ep.ep_queues [] in
  List.iter (flush_to ep) (List.sort Int.compare dsts)

(* Loopback: the wire never sees the message, so the coalescing queue
   is bypassed too.  Delivery is still asynchronous (next engine step)
   so callers observe the same send-then-return discipline as for
   remote destinations. *)
let loopback ep payload =
  let net = ep.ep_net in
  let g = ep.ep_global in
  apply_fault_one net ~src:g ~dst:(Some g) payload (fun () ->
      Engine.schedule net.eng (fun () ->
          if Msglink.is_up ep.ep_link then
            match ep.ep_handler with
            | Some f -> f ~src:g payload
            | None -> ()))

(* One payload alone on the wire to [dst]. *)
let unicast_one ep ~dst payload =
  apply_fault_one ep.ep_net ~src:ep.ep_global ~dst:(Some dst) payload
    (fun () -> transmit_unicast ep ~dst (One payload))

let send ep ~dst payload =
  let net = ep.ep_net in
  if dst < 0 || dst >= Array.length net.directory then
    invalid_arg "Internet.send: unknown destination";
  if dst = ep.ep_global then
    loopback ep payload
  else
    match net.coalesce with
    | None -> unicast_one ep ~dst payload
    | Some co ->
      let sz = net.size payload in
      if sz >= co.co_max_bytes then begin
        (* Oversized messages travel alone; flushing first preserves
           per-destination FIFO order. *)
        flush_to ep dst;
        unicast_one ep ~dst payload
      end
      else begin
        let pb =
          match Hashtbl.find_opt ep.ep_queues dst with
          | Some pb -> pb
          | None ->
            let pb =
              { pb_items = []; pb_bytes = 0; pb_count = 0; pb_gen = 0 }
            in
            Hashtbl.replace ep.ep_queues dst pb;
            pb
        in
        pb.pb_items <- payload :: pb.pb_items;
        pb.pb_bytes <- pb.pb_bytes + sz;
        pb.pb_count <- pb.pb_count + 1;
        if pb.pb_bytes >= co.co_max_bytes || pb.pb_count >= co.co_max_msgs
        then flush_to ep dst
        else if pb.pb_count = 1 then begin
          (* First message in a fresh batch arms the delay budget. *)
          let gen = pb.pb_gen in
          Engine.schedule_after net.eng co.co_max_delay (fun () ->
              if pb.pb_gen = gen then flush_to ep dst)
        end
      end

(* An urgent unicast: never enters the coalescing queue.  Anything
   already queued for [dst] is flushed first so per-destination FIFO
   order still holds, then the payload goes out alone.  Exists for
   retraction-style traffic (a [Cancel]) that must not be batched
   behind — and thus delivered together with — the very work it is
   trying to cancel.  The fault injector still gets its verdict, so
   chaos plans see urgent traffic like any other unicast. *)
let send_now ep ~dst payload =
  let net = ep.ep_net in
  if dst < 0 || dst >= Array.length net.directory then
    invalid_arg "Internet.send_now: unknown destination";
  if dst = ep.ep_global then
    loopback ep payload
  else begin
    flush_to ep dst;
    unicast_one ep ~dst payload
  end

let broadcast ep payload =
  (* A broadcast is a barrier: anything queued must not overtake it. *)
  flush ep;
  apply_fault_one ep.ep_net ~src:ep.ep_global ~dst:None payload (fun () ->
      Msglink.broadcast ep.ep_link
        { env_src = ep.ep_global; env_dst = None; env_bridged = false;
          env_cargo = One payload })

let set_up ep up =
  (* Powering off loses queued-but-unflushed messages with the rest of
     the node's volatile state. *)
  if not up then
    Hashtbl.iter
      (fun _ pb ->
        pb.pb_items <- [];
        pb.pb_bytes <- 0;
        pb.pb_count <- 0;
        pb.pb_gen <- pb.pb_gen + 1)
      ep.ep_queues;
  Msglink.set_up ep.ep_link up

let is_up ep = Msglink.is_up ep.ep_link

let queued_messages ep =
  Hashtbl.fold (fun _ pb acc -> acc + pb.pb_count) ep.ep_queues 0

let reassembly_pending ep = Msglink.reassembly_pending ep.ep_link

let frames_delivered net =
  Array.fold_left
    (fun acc lan -> acc + (Lan.counters lan).Lan.frames_delivered)
    0 net.lans

let bridge_forwards net = net.n_bridge_forwards
let bridge_drops net = net.n_bridge_drops
let coalesced_batches net = net.n_coalesced_batches
let coalesced_messages net = net.n_coalesced_messages
let segment_counters net = Array.map Lan.counters net.lans

let set_partitioned net seg cut =
  if seg < 0 || seg >= Array.length net.lans then
    invalid_arg "Internet.set_partitioned: no such segment";
  net.partitioned.(seg) <- cut

let partitioned net seg =
  if seg < 0 || seg >= Array.length net.lans then
    invalid_arg "Internet.partitioned: no such segment";
  net.partitioned.(seg)

let set_fault_injector net f = net.injector <- f
let set_event_hook net f = net.event_hook <- f
