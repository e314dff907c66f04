open Eden_util
open Effect
open Effect.Deep

module Pid = struct
  type t = { id : int; pname : string }

  let equal a b = Int.equal a.id b.id
  let compare a b = Int.compare a.id b.id
  let to_int p = p.id
  let name p = p.pname
  let pp ppf p = Format.fprintf ppf "%s#%d" p.pname p.id
end

exception Killed
exception Stalled_waiting

type wake = Woken | Timed_out

(* Samplers are deliberately not heap events: [run] drains the heap
   to completion, so a self-rescheduling sampler event would keep the
   simulation alive forever, and even a bounded one would perturb
   [n_events].  Instead the run loop interleaves sampler boundaries
   with heap events by time (boundary first on ties), touching neither
   the heap nor the event counter — a run with samplers executes the
   exact same schedule as one without. *)
type sampler = {
  smp_interval : Time.t;
  mutable smp_next : Time.t;
  smp_fn : unit -> unit;
}

(* A heap event is a callback: a [schedule] body, a timed suspension's
   timeout check, or a process's own [p_resume].  Only one process runs
   at a time, so the effect handler is one per engine and finds its
   process in [current]; the arguments of the effect it is handling wait
   in [arg_*] for the instant between [effc] and the parking function it
   returns. *)
type t = {
  mutable clock : Time.t;
  heap : (unit -> unit) Pqueue.t;
  procs : (int, proc) Hashtbl.t;
  pid_gen : Idgen.t;
  root_rng : Splitmix.t;
  mutable n_events : int;
  mutable n_spawned : int;
  mutable current : proc option;  (* the running process's [p_some] *)
  mutable samplers : sampler array;  (* registration order *)
  mutable arg_delay : Time.t;
  mutable arg_timeout : Time.t option;
  mutable arg_register : handle -> unit;
  handler : (unit, unit) handler;
}

(* Everything a resume needs is allocated once, at spawn: [p_some] for
   [current] and the [p_resume] closure that every start or resume
   event carries.  A parked process keeps its continuation in [p_k]
   ([None] only before it first runs) and the value to resume it with
   in [p_v].  [p_v], [p_state] and the counters hold immediates, so the
   hot path updates them without a write barrier. *)
and proc = {
  p_pid : Pid.t;
  p_some : proc option;
  p_resume : unit -> unit;
  mutable p_body : unit -> unit;  (* until the first resume starts it *)
  mutable p_k : (wake, unit) continuation option;
  mutable p_v : wake;
  mutable p_state : proc_state;
  mutable p_suspends : int;  (* numbers the suspensions, for handles *)
  mutable p_killed : bool;
  mutable p_daemon : bool;
}

and proc_state =
  | Sched  (** a start/resume event for this process is in the heap *)
  | Run
  | Blocked  (** suspended, and no wake, timeout or kill has come yet *)
  | Done

(* One suspension of [h_proc]: its [h_suspend]-th. *)
and handle = { h_proc : proc; h_suspend : int }

type _ Effect.t +=
  | E_delay : Time.t -> wake Effect.t
  | E_suspend : Time.t option * (handle -> unit) -> wake Effect.t
  | E_self : Pid.t Effect.t

let now eng = eng.clock
let fork_rng eng = Splitmix.split eng.root_rng
let push eng time f = Pqueue.push eng.heap (Time.to_ns time) f

let schedule eng ?(after = Time.zero) f = push eng (Time.add eng.clock after) f
let schedule_after eng d f = push eng (Time.add eng.clock d) f

let current eng =
  match eng.current with Some p -> p | None -> assert false

let enter eng p =
  eng.current <- p.p_some;
  p.p_state <- Run

(* A finished process leaves the table: [alive] and [kill] then treat
   its pid like an unknown one, which they already answer the same way,
   and the table holds only live processes. *)
let finish eng p =
  p.p_state <- Done;
  Hashtbl.remove eng.procs (Pid.to_int p.p_pid)

let finish_current eng =
  finish eng (current eng);
  eng.current <- None

(* Queue [p]'s resume at [time]; [wake_at] also sets what it resumes
   with. *)
let resume_at eng p time =
  p.p_state <- Sched;
  push eng time p.p_resume

let wake_at eng p time v =
  p.p_v <- v;
  resume_at eng p time

(* The body of every process event: start [p], or resume its parked
   continuation — with [Killed] if it was killed meanwhile. *)
let resume eng p =
  match p.p_k with
  | Some k ->
    enter eng p;
    if p.p_killed then discontinue k Killed else continue k p.p_v
  | None ->
    if p.p_killed then finish eng p
    else begin
      let body = p.p_body in
      p.p_body <- ignore;
      enter eng p;
      match_with body () eng.handler
    end

let handle_pending h =
  match h.h_proc.p_state with
  | Blocked -> h.h_proc.p_suspends = h.h_suspend
  | Sched | Run | Done -> false

let on_delay eng k =
  let p = current eng in
  eng.current <- None;
  p.p_k <- Some k;
  wake_at eng p (Time.add eng.clock eng.arg_delay) Woken

let on_suspend eng k =
  let p = current eng in
  let register = eng.arg_register in
  eng.arg_register <- ignore;
  eng.current <- None;
  p.p_k <- Some k;
  p.p_state <- Blocked;
  (* Until a wake says otherwise: [was_woken] reads it after a kill. *)
  p.p_v <- Timed_out;
  p.p_suspends <- p.p_suspends + 1;
  let h = { h_proc = p; h_suspend = p.p_suspends } in
  (match eng.arg_timeout with
  | None -> ()
  | Some d ->
    push eng (Time.add eng.clock d) (fun () ->
        if handle_pending h then begin
          p.p_v <- Timed_out;
          resume eng p
        end));
  register h

let create ?(seed = 1L) () =
  let rec eng =
    {
      clock = Time.zero;
      heap = Pqueue.create ~dummy:ignore;
      procs = Hashtbl.create 64;
      pid_gen = Idgen.create ();
      root_rng = Splitmix.create seed;
      n_events = 0;
      n_spawned = 0;
      current = None;
      samplers = [||];
      arg_delay = Time.zero;
      arg_timeout = None;
      arg_register = ignore;
      handler;
    }
  and handler =
    {
      retc = (fun () -> finish_current eng);
      exnc =
        (fun e ->
          finish_current eng;
          match e with Killed -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | E_delay d ->
            eng.arg_delay <- d;
            delay_h
          | E_suspend (timeout, register) ->
            eng.arg_timeout <- timeout;
            eng.arg_register <- register;
            suspend_h
          | E_self -> self_h
          | _ -> None);
    }
  and delay_h : ((wake, unit) continuation -> unit) option =
    Some (fun k -> on_delay eng k)
  and suspend_h : ((wake, unit) continuation -> unit) option =
    Some (fun k -> on_suspend eng k)
  and self_h : ((Pid.t, unit) continuation -> unit) option =
    Some (fun k -> continue k (current eng).p_pid)
  in
  eng

let spawn eng ?(name = "proc") ?at body =
  let id = Idgen.next eng.pid_gen in
  let pid = { Pid.id; pname = name } in
  let rec p =
    {
      p_pid = pid;
      p_some = Some p;
      p_resume = (fun () -> resume eng p);
      p_body = body;
      p_k = None;
      p_v = Woken;
      p_state = Sched;
      p_suspends = 0;
      p_killed = false;
      p_daemon = false;
    }
  in
  Hashtbl.replace eng.procs id p;
  eng.n_spawned <- eng.n_spawned + 1;
  let start = match at with None -> eng.clock | Some t -> Time.max t eng.clock in
  push eng start p.p_resume;
  pid

let find_proc eng pid = Hashtbl.find_opt eng.procs (Pid.to_int pid)

let kill eng pid =
  match find_proc eng pid with
  | None -> ()
  | Some p -> (
    match p.p_state with
    | Done -> ()
    | Run ->
      p.p_killed <- true;
      (match eng.current with
      | Some r when r == p -> raise Killed
      | Some _ | None ->
        (* Only one process runs at a time, so a Run process that is not
           [eng.current] cannot exist. *)
        assert false)
    | Sched ->
      (* The pending start/resume event, or the wake already in flight,
         will observe [p_killed]. *)
      p.p_killed <- true
    | Blocked ->
      (* Nothing woke this suspension, and [p_v] keeps saying so. *)
      p.p_killed <- true;
      resume_at eng p eng.clock)

let alive eng pid = Hashtbl.mem eng.procs (Pid.to_int pid)

let not_in_process what =
  invalid_arg (Printf.sprintf "Engine.%s: called outside a process" what)

let self () = try perform E_self with Effect.Unhandled _ -> not_in_process "self"

let delay d =
  try ignore (perform (E_delay d) : wake)
  with Effect.Unhandled _ -> not_in_process "delay"

let yield () = delay Time.zero

let suspend ?timeout register =
  try perform (E_suspend (timeout, register))
  with Effect.Unhandled _ -> not_in_process "suspend"

let wake eng h = if handle_pending h then wake_at eng h.h_proc eng.clock Woken

let handle_pid h = h.h_proc.p_pid
let was_woken eng = (current eng).p_v = Woken

let set_daemon eng pid =
  match find_proc eng pid with
  | None -> invalid_arg "Engine.set_daemon: unknown process"
  | Some p -> p.p_daemon <- true

let blocked_procs eng =
  Hashtbl.fold
    (fun _ p acc ->
      match p.p_state with Blocked -> p :: acc | Sched | Run | Done -> acc)
    eng.procs []
  |> List.sort (fun a b -> Pid.compare a.p_pid b.p_pid)

(* When the heap empties, blocked daemons are discarded and any other
   blocked process is a deadlock: resume it with Stalled_waiting, which
   escapes through [run] unless the process catches it. *)
let handle_idle eng =
  let blocked = blocked_procs eng in
  (* Daemons (server loops, coordinators) are expected to be blocked at
     idle; they stay suspended and resume if a later run wakes them. *)
  let stuck = List.filter (fun p -> not p.p_daemon) blocked in
  match stuck with
  | [] -> false
  | p :: _ -> (
    match p.p_k with
    | Some k ->
      enter eng p;
      discontinue k Stalled_waiting;
      true
    | None -> assert false)

let every eng ~interval f =
  if Time.is_zero interval then invalid_arg "Engine.every: zero interval";
  let smp =
    { smp_interval = interval; smp_next = Time.add eng.clock interval; smp_fn = f }
  in
  eng.samplers <- Array.append eng.samplers [| smp |]

let run ?until eng =
  if Option.is_some eng.current then
    invalid_arg "Engine.run: called from inside a process";
  let within_limit t =
    match until with None -> true | Some l -> Time.(t <= l)
  in
  (* The sampler whose next boundary comes first — the earliest
     registered one on a tie — if that boundary is due at or before
     [t] (and within the run limit): boundaries fire first, so events
     at the boundary instant land in the next window. *)
  let sampler_due t =
    let smps = eng.samplers in
    let best = ref (-1) in
    for i = 0 to Array.length smps - 1 do
      if !best < 0 || Time.(smps.(i).smp_next < smps.(!best).smp_next) then
        best := i
    done;
    if !best < 0 then None
    else
      let smp = smps.(!best) in
      let n = smp.smp_next in
      if Time.(n <= t) && within_limit n then Some smp else None
  in
  let fire s =
    eng.clock <- s.smp_next;
    s.smp_next <- Time.add s.smp_next s.smp_interval;
    s.smp_fn ()
  in
  let rec loop () =
    if Pqueue.is_empty eng.heap then (if handle_idle eng then loop ())
    else
      let t = Time.ns (Pqueue.peek_key_exn eng.heap) in
      if not (within_limit t) then
        match until with
        | None -> assert false
        | Some l -> (
          (* Catch up boundaries inside the limit before parking at it. *)
          match sampler_due l with
          | Some s ->
            fire s;
            loop ()
          | None -> eng.clock <- l)
      else
        match sampler_due t with
        | Some s ->
          fire s;
          loop ()
        | None ->
          let event = Pqueue.pop_exn eng.heap in
          eng.clock <- t;
          eng.n_events <- eng.n_events + 1;
          event ();
          loop ()
  in
  loop ()

let events_processed eng = eng.n_events
let processes_spawned eng = eng.n_spawned

let blocked_processes eng =
  List.map (fun p -> p.p_pid) (blocked_procs eng)

let live_processes eng = Hashtbl.length eng.procs

let runnable_processes eng =
  Hashtbl.fold
    (fun _ p acc ->
      match p.p_state with Sched | Run -> acc + 1 | Blocked | Done -> acc)
    eng.procs 0
