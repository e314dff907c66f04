open Eden_util
open Eden_sim

type dest = Unicast of int | Broadcast

type 'a frame = {
  src : int;
  dest : dest;
  bytes : int;
  payload : 'a;
  sent_at : Time.t;
}

type medium_state = Idle | Contending | Busy

type counters = {
  frames_sent : int;
  frames_broadcast : int;
  frames_delivered : int;
  frames_dropped : int;
  payload_bytes_delivered : int;
  collision_events : int;
  backoffs : int;
}

type 'a station = {
  st_lan : 'a t;
  st_addr : int;
  st_name : string;
  st_tx : 'a frame Mailbox.t;
  mutable st_receive : ('a frame -> unit) option;
}

and 'a contender = { c_addr : int; mutable c_won : bool; c_h : Engine.handle }

and 'a t = {
  eng : Engine.t;
  prm : Params.t;
  rng : Splitmix.t;
  mutable stations : 'a station array;
  idle_cond : Condition.t;
  mutable state : medium_state;
  mutable window : 'a contender list;  (** contenders in the open window *)
  mutable busy : Time.t;
  mutable c_sent : int;
  mutable c_broadcast : int;
  mutable c_delivered : int;
  mutable c_dropped : int;
  mutable c_bytes : int;
  mutable c_collisions : int;
  mutable c_backoffs : int;
  latencies : Stats.t;
}

let create ?(params = Params.default) eng =
  Params.validate params;
  {
    eng;
    prm = params;
    rng = Engine.fork_rng eng;
    stations = [||];
    idle_cond = Condition.create eng;
    state = Idle;
    window = [];
    busy = Time.zero;
    c_sent = 0;
    c_broadcast = 0;
    c_delivered = 0;
    c_dropped = 0;
    c_bytes = 0;
    c_collisions = 0;
    c_backoffs = 0;
    latencies = Stats.create ();
  }

let params lan = lan.prm
let engine lan = lan.eng
let address st = st.st_addr
let station_name st = st.st_name
let station_count lan = Array.length lan.stations
let on_receive st f = st.st_receive <- Some f

let deliver lan frame addr =
  let st = lan.stations.(addr) in
  lan.c_delivered <- lan.c_delivered + 1;
  lan.c_bytes <- lan.c_bytes + frame.bytes;
  Stats.add_time lan.latencies (Time.diff (Engine.now lan.eng) frame.sent_at);
  match st.st_receive with None -> () | Some f -> f frame

let schedule_delivery lan frame =
  Engine.schedule lan.eng ~after:lan.prm.prop_delay (fun () ->
      match frame.dest with
      | Unicast a -> deliver lan frame a
      | Broadcast ->
        Array.iter
          (fun st -> if st.st_addr <> frame.src then deliver lan frame st.st_addr)
          lan.stations)

(* The window-close event: decide who owns the medium. *)
let close_window lan =
  let contenders = lan.window in
  lan.window <- [];
  match contenders with
  | [] ->
    (* All contenders were killed before the window closed. *)
    lan.state <- Idle;
    Condition.broadcast lan.idle_cond
  | [ c ] ->
    c.c_won <- true;
    lan.state <- Busy;
    Engine.wake lan.eng c.c_h
  | several ->
    lan.c_collisions <- lan.c_collisions + 1;
    lan.state <- Busy;
    Engine.schedule lan.eng ~after:lan.prm.jam (fun () ->
        lan.state <- Idle;
        Condition.broadcast lan.idle_cond);
    List.iter (fun c -> Engine.wake lan.eng c.c_h) several

(* The MAC protocol, run by a station's transmitter process for one
   frame.  Returns [true] on successful transmission. *)
let rec mac_transmit lan st frame ~attempt =
  (* Carrier sense. *)
  (match lan.state with
  | Busy ->
    ignore (Condition.await lan.idle_cond);
    ()
  | Idle | Contending -> ());
  match lan.state with
  | Busy -> mac_transmit lan st frame ~attempt (* lost the race; sense again *)
  | Idle | Contending ->
    if lan.state = Idle then begin
      lan.state <- Contending;
      Engine.schedule lan.eng ~after:lan.prm.slot (fun () -> close_window lan)
    end;
    let cell = ref None in
    (match
       Engine.suspend (fun h ->
           let c = { c_addr = st.st_addr; c_won = false; c_h = h } in
           cell := Some c;
           lan.window <- lan.window @ [ c ])
     with
    | Engine.Timed_out -> assert false (* no timeout was requested *)
    | Engine.Woken -> ());
    let won = match !cell with Some c -> c.c_won | None -> false in
    if won then begin
      (* The contention slot already elapsed; occupy the medium for the
         remainder of the frame, then release it and deliver. *)
      let ft = Params.frame_time lan.prm ~payload_bytes:frame.bytes in
      let remainder =
        if Time.(ft > lan.prm.slot) then Time.diff ft lan.prm.slot
        else Time.zero
      in
      Engine.delay remainder;
      lan.busy <- Time.add lan.busy ft;
      lan.state <- Idle;
      Condition.broadcast lan.idle_cond;
      schedule_delivery lan frame;
      true
    end
    else if attempt >= lan.prm.max_attempts then begin
      lan.c_dropped <- lan.c_dropped + 1;
      false
    end
    else begin
      lan.c_backoffs <- lan.c_backoffs + 1;
      let exponent = Stdlib.min attempt lan.prm.backoff_limit in
      let window_slots = (1 lsl exponent) - 1 in
      let k = if window_slots = 0 then 0 else Splitmix.int lan.rng (window_slots + 1) in
      Engine.delay (Time.scale lan.prm.slot k);
      mac_transmit lan st frame ~attempt:(attempt + 1)
    end

let transmitter_loop lan st () =
  let rec loop () =
    match Mailbox.recv st.st_tx with
    | None -> loop () (* no timeout requested; cannot happen *)
    | Some frame ->
      ignore (mac_transmit lan st frame ~attempt:1);
      loop ()
  in
  loop ()

let attach lan ~name =
  let addr = Array.length lan.stations in
  let st =
    {
      st_lan = lan;
      st_addr = addr;
      st_name = name;
      st_tx = Mailbox.create lan.eng;
      st_receive = None;
    }
  in
  lan.stations <- Array.append lan.stations [| st |];
  let pid =
    Engine.spawn lan.eng ~name:(Printf.sprintf "tx:%s" name)
      (transmitter_loop lan st)
  in
  Engine.set_daemon lan.eng pid;
  st

let send st ~dest ~bytes payload =
  let lan = st.st_lan in
  if bytes < 0 || bytes > lan.prm.max_frame_bytes then
    invalid_arg "Lan.send: payload size out of range";
  (match dest with
  | Unicast a ->
    if a = st.st_addr then invalid_arg "Lan.send: destination is self";
    if a < 0 || a >= Array.length lan.stations then
      invalid_arg "Lan.send: no such station"
  | Broadcast -> lan.c_broadcast <- lan.c_broadcast + 1);
  lan.c_sent <- lan.c_sent + 1;
  let frame =
    { src = st.st_addr; dest; bytes; payload; sent_at = Engine.now lan.eng }
  in
  let accepted = Mailbox.try_send st.st_tx frame in
  (* The transmit queue is unbounded, so acceptance cannot fail. *)
  assert accepted

let counters lan =
  {
    frames_sent = lan.c_sent;
    frames_broadcast = lan.c_broadcast;
    frames_delivered = lan.c_delivered;
    frames_dropped = lan.c_dropped;
    payload_bytes_delivered = lan.c_bytes;
    collision_events = lan.c_collisions;
    backoffs = lan.c_backoffs;
  }

let busy_time lan = lan.busy

let utilisation lan ~over =
  if Time.is_zero over then 0.0
  else Time.to_sec lan.busy /. Time.to_sec over

let latency_stats lan = lan.latencies
