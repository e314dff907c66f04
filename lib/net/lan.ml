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

(* What a station's next step does.  Every phase but [Parked] has the
   step queued, or the station waiting in the lan's [window] or
   [sensing] queue for a close or a release to queue it. *)
type phase =
  | Boot  (** take the head of the transmit queue, if any *)
  | Parked  (** queue empty, nothing queued: the next {!send} boots *)
  | Sense  (** carrier sense: join the window, or wait for a release *)
  | Resolve  (** the window closed: transmit, back off or drop *)
  | Finish  (** the frame has left: release the medium, deliver *)

(* The MAC runs as one state machine per station, driven by engine
   callbacks.  The head of [st_tx] is the frame being transmitted; it
   leaves the queue once sent or dropped.  [st_step], made at attach, is
   the only callback a station ever queues. *)
type 'a station = {
  st_lan : 'a t;
  st_addr : int;
  st_name : string;
  st_tx : 'a frame Fifo.t;
  mutable st_phase : phase;
  mutable st_attempt : int;
  mutable st_won : bool;
  st_step : unit -> unit;
  mutable st_receive : ('a frame -> unit) option;
}

and 'a t = {
  eng : Engine.t;
  prm : Params.t;
  rng : Splitmix.t;
  mutable stations : 'a station array;
  mutable state : medium_state;
  window : 'a station Fifo.t;  (** contenders in the open window *)
  sensing : 'a station Fifo.t;  (** waiting for the medium to go idle *)
  in_flight : 'a frame Fifo.t;  (** sent, not yet delivered *)
  on_close : unit -> unit;
  on_release : unit -> unit;
  on_arrive : unit -> unit;
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

(* [prop_delay] is constant, so frames arrive in the order they left:
   each arrival event takes the head of [in_flight]. *)
let arrive lan =
  let frame = Fifo.pop_exn lan.in_flight in
  match frame.dest with
  | Unicast a -> deliver lan frame a
  | Broadcast ->
    let stations = lan.stations in
    for a = 0 to Array.length stations - 1 do
      if a <> frame.src then deliver lan frame a
    done

(* The medium goes idle: every station waiting on carrier sense senses
   again, in the order it began waiting. *)
let release lan =
  lan.state <- Idle;
  while not (Fifo.is_empty lan.sensing) do
    Engine.schedule lan.eng (Fifo.pop_exn lan.sensing).st_step
  done

(* The window-close event: decide who owns the medium.  A window opens
   only when a station joins it, so it is never empty here. *)
let close_window lan =
  let first = Fifo.pop_exn lan.window in
  lan.state <- Busy;
  if Fifo.is_empty lan.window then begin
    first.st_won <- true;
    Engine.schedule lan.eng first.st_step
  end
  else begin
    lan.c_collisions <- lan.c_collisions + 1;
    Engine.schedule lan.eng ~after:lan.prm.jam lan.on_release;
    Engine.schedule lan.eng first.st_step;
    while not (Fifo.is_empty lan.window) do
      Engine.schedule lan.eng (Fifo.pop_exn lan.window).st_step
    done
  end

let contend lan st =
  st.st_won <- false;
  st.st_phase <- Resolve;
  Fifo.push_exn lan.window st

(* Carrier sense for the frame at the head of [st_tx]: wait while the
   medium is busy, otherwise contend in the current window (opening
   one if the medium is idle). *)
let sense lan st =
  match lan.state with
  | Busy ->
    st.st_phase <- Sense;
    Fifo.push_exn lan.sensing st
  | Contending -> contend lan st
  | Idle ->
    lan.state <- Contending;
    Engine.schedule lan.eng ~after:lan.prm.slot lan.on_close;
    contend lan st

let take_next lan st =
  if Fifo.is_empty st.st_tx then st.st_phase <- Parked
  else begin
    st.st_attempt <- 1;
    sense lan st
  end

let head_frame_time lan st =
  match Fifo.peek st.st_tx with
  | Some frame -> Params.frame_time lan.prm ~payload_bytes:frame.bytes
  | None -> assert false

let resolve lan st =
  if st.st_won then begin
    (* The contention slot already elapsed; occupy the medium for the
       remainder of the frame. *)
    let ft = head_frame_time lan st in
    let remainder =
      if Time.(ft > lan.prm.slot) then Time.diff ft lan.prm.slot
      else Time.zero
    in
    st.st_phase <- Finish;
    Engine.schedule lan.eng ~after:remainder st.st_step
  end
  else if st.st_attempt >= lan.prm.max_attempts then begin
    lan.c_dropped <- lan.c_dropped + 1;
    ignore (Fifo.pop_exn st.st_tx);
    take_next lan st
  end
  else begin
    lan.c_backoffs <- lan.c_backoffs + 1;
    let exponent = Stdlib.min st.st_attempt lan.prm.backoff_limit in
    let window_slots = (1 lsl exponent) - 1 in
    let k =
      if window_slots = 0 then 0 else Splitmix.int lan.rng (window_slots + 1)
    in
    st.st_attempt <- st.st_attempt + 1;
    st.st_phase <- Sense;
    Engine.schedule lan.eng ~after:(Time.scale lan.prm.slot k) st.st_step
  end

let finish lan st =
  lan.busy <- Time.add lan.busy (head_frame_time lan st);
  release lan;
  Fifo.push_exn lan.in_flight (Fifo.pop_exn st.st_tx);
  Engine.schedule lan.eng ~after:lan.prm.prop_delay lan.on_arrive;
  take_next lan st

let step lan st =
  match st.st_phase with
  | Boot -> take_next lan st
  | Sense -> sense lan st
  | Resolve -> resolve lan st
  | Finish -> finish lan st
  | Parked -> assert false (* a parked station has nothing queued *)

let create ?(params = Params.default) eng =
  Params.validate params;
  let rec lan =
    {
      eng;
      prm = params;
      rng = Engine.fork_rng eng;
      stations = [||];
      state = Idle;
      window = Fifo.create ();
      sensing = Fifo.create ();
      in_flight = Fifo.create ();
      on_close = (fun () -> close_window lan);
      on_release = (fun () -> release lan);
      on_arrive = (fun () -> arrive lan);
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
  in
  lan

let attach lan ~name =
  let addr = Array.length lan.stations in
  let rec st =
    {
      st_lan = lan;
      st_addr = addr;
      st_name = name;
      st_tx = Fifo.create ();
      st_phase = Boot;
      st_attempt = 0;
      st_won = false;
      st_step = (fun () -> step lan st);
      st_receive = None;
    }
  in
  lan.stations <- Array.append lan.stations [| st |];
  (* Boot at the attach instant: frames sent before the engine next
     runs are taken up then, behind events already queued. *)
  Engine.schedule lan.eng st.st_step;
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
  Fifo.push_exn st.st_tx
    { src = st.st_addr; dest; bytes; payload; sent_at = Engine.now lan.eng };
  match st.st_phase with
  | Parked ->
    st.st_phase <- Boot;
    Engine.schedule lan.eng st.st_step
  | Boot | Sense | Resolve | Finish -> ()

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
