open Eden_util

type 'a sender = { item : 'a; s_h : Engine.handle }

(* A message for a blocked receiver is put in [handed] as its handle is
   woken.  Woken processes resume in the order they were woken, so the
   k-th receiver to resume takes the k-th handed message, and
   [try_recv], which reads only [buffer], can never intercept it. *)
type 'a t = {
  eng : Engine.t;
  capacity : int option;
  buffer : 'a Fifo.t;
  receivers : Engine.handle Fifo.t;
  handed : 'a Fifo.t;
  enqueue_receiver : Engine.handle -> unit;  (* [recv]'s registration *)
  senders : 'a sender Fifo.t;
}

let create ?capacity eng =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Mailbox.create: capacity must be positive"
  | Some _ | None -> ());
  let receivers = Fifo.create () in
  {
    eng;
    capacity;
    buffer = Fifo.create ();
    receivers;
    handed = Fifo.create ();
    enqueue_receiver = (fun h -> Fifo.push_exn receivers h);
    senders = Fifo.create ();
  }

let is_full mb =
  match mb.capacity with
  | None -> false
  | Some c -> Fifo.length mb.buffer >= c

(* Give [v] to the longest-waiting live receiver, if there is one. *)
let rec hand_off mb v =
  if Fifo.is_empty mb.receivers then false
  else
    let h = Fifo.pop_exn mb.receivers in
    if Engine.handle_pending h then begin
      Fifo.push_exn mb.handed v;
      Engine.wake mb.eng h;
      true
    end
    else hand_off mb v

let rec pop_pending_sender mb =
  match Fifo.pop mb.senders with
  | None -> None
  | Some s ->
    if Engine.handle_pending s.s_h then Some s else pop_pending_sender mb

let try_send mb v =
  if hand_off mb v then true
  else if is_full mb then false
  else begin
    Fifo.push_exn mb.buffer v;
    true
  end

let send ?timeout mb v =
  if try_send mb v then true
  else
    match
      Engine.suspend ?timeout (fun h ->
          Fifo.push_exn mb.senders { item = v; s_h = h })
    with
    | Engine.Woken -> true (* the message was taken on our behalf *)
    | Engine.Timed_out -> false

(* After consuming a buffered message, move one blocked sender's message
   into the freed buffer slot. *)
let refill_from_sender mb =
  if not (is_full mb) then
    match pop_pending_sender mb with
    | None -> ()
    | Some s ->
      Fifo.push_exn mb.buffer s.item;
      Engine.wake mb.eng s.s_h

let try_recv mb =
  if Fifo.is_empty mb.buffer then None
  else begin
    let v = Fifo.pop_exn mb.buffer in
    refill_from_sender mb;
    Some v
  end

(* [v] was handed to a receiver that was killed before it ran: give it
   to the next waiting receiver, or put it back at the head of the
   buffer, where it still comes out before everything sent after it.
   The buffer may exceed [capacity] by this one message, which it had
   already accepted. *)
let redeliver mb v = if not (hand_off mb v) then Fifo.push_front mb.buffer v

let recv ?timeout mb =
  if not (Fifo.is_empty mb.buffer) then try_recv mb
  else
    match Engine.suspend ?timeout mb.enqueue_receiver with
    | Engine.Woken -> Some (Fifo.pop_exn mb.handed)
    | Engine.Timed_out -> None
    | exception e ->
      if Engine.was_woken mb.eng then redeliver mb (Fifo.pop_exn mb.handed);
      raise e

let length mb = Fifo.length mb.buffer

let receivers_waiting mb =
  let n = ref 0 in
  Fifo.iter (fun h -> if Engine.handle_pending h then incr n) mb.receivers;
  !n

let senders_waiting mb =
  let n = ref 0 in
  Fifo.iter (fun s -> if Engine.handle_pending s.s_h then incr n) mb.senders;
  !n
