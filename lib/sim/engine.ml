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

type event = { ev_time : Time.t; ev_run : unit -> unit }

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

type t = {
  mutable clock : Time.t;
  heap : event Pqueue.t;
  procs : (int, proc) Hashtbl.t;
  pid_gen : Idgen.t;
  root_rng : Splitmix.t;
  mutable n_events : int;
  mutable n_spawned : int;
  mutable running : Pid.t option;
  mutable samplers : sampler array;  (* registration order *)
}

and proc = {
  p_pid : Pid.t;
  mutable p_state : proc_state;
  mutable p_killed : bool;
  mutable p_daemon : bool;
}

and proc_state =
  | Sched  (** a start/resume event for this process is in the heap *)
  | Run
  | Blocked of handle
  | Done

and handle = {
  h_proc : proc;
  mutable h_k : (wake, unit) continuation option;
}

type _ Effect.t +=
  | E_delay : Time.t -> unit Effect.t
  | E_suspend : Time.t option * (handle -> unit) -> wake Effect.t
  | E_self : Pid.t Effect.t

let create ?(seed = 1L) () =
  {
    clock = Time.zero;
    heap = Pqueue.create ~cmp:(fun a b -> Time.compare a.ev_time b.ev_time);
    procs = Hashtbl.create 64;
    pid_gen = Idgen.create ();
    root_rng = Splitmix.create seed;
    n_events = 0;
    n_spawned = 0;
    running = None;
    samplers = [||];
  }

let now eng = eng.clock
let fork_rng eng = Splitmix.split eng.root_rng

let push_event eng time run =
  Pqueue.push eng.heap { ev_time = time; ev_run = run }

let schedule eng ?(after = Time.zero) f =
  push_event eng (Time.add eng.clock after) f

(* Resume a suspended/delayed process.  [go] performs the continue or
   discontinue; the process's installed handler takes over from there. *)
let reenter eng p go =
  eng.running <- Some p.p_pid;
  p.p_state <- Run;
  go ();
  (* The process has returned control: it either finished (state Done,
     set by its handler) or suspended again (state updated by the
     effect branch). *)
  ()

let resume_with eng p k v =
  reenter eng p (fun () ->
      if p.p_killed then discontinue k Killed else continue k v)

let resume_unit eng p (k : (unit, unit) continuation) =
  reenter eng p (fun () ->
      if p.p_killed then discontinue k Killed else continue k ())

let exec_body eng p body =
  eng.running <- Some p.p_pid;
  p.p_state <- Run;
  match_with body ()
    {
      retc =
        (fun () ->
          p.p_state <- Done;
          eng.running <- None);
      exnc =
        (fun e ->
          p.p_state <- Done;
          eng.running <- None;
          match e with Killed -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_delay d ->
            Some
              (fun (k : (a, unit) continuation) ->
                p.p_state <- Sched;
                eng.running <- None;
                push_event eng (Time.add eng.clock d) (fun () ->
                    resume_unit eng p k))
          | E_suspend (timeout, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let h = { h_proc = p; h_k = Some k } in
                p.p_state <- Blocked h;
                eng.running <- None;
                (match timeout with
                | None -> ()
                | Some d ->
                  push_event eng (Time.add eng.clock d) (fun () ->
                      match h.h_k with
                      | None -> ()
                      | Some k ->
                        h.h_k <- None;
                        resume_with eng p k Timed_out));
                register h)
          | E_self ->
            Some (fun (k : (a, unit) continuation) -> continue k p.p_pid)
          | _ -> None);
    }

let spawn eng ?(name = "proc") ?at body =
  let id = Idgen.next eng.pid_gen in
  let pid = { Pid.id; pname = name } in
  let p = { p_pid = pid; p_state = Sched; p_killed = false; p_daemon = false } in
  Hashtbl.replace eng.procs id p;
  eng.n_spawned <- eng.n_spawned + 1;
  let start = match at with None -> eng.clock | Some t -> Time.max t eng.clock in
  push_event eng start (fun () ->
      if p.p_killed then p.p_state <- Done else exec_body eng p body);
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
      (match eng.running with
      | Some r when Pid.equal r pid -> raise Killed
      | Some _ | None ->
        (* Only one process runs at a time, so a Run process that is not
           [eng.running] cannot exist. *)
        assert false)
    | Sched ->
      (* The pending start/resume event will observe [p_killed]. *)
      p.p_killed <- true
    | Blocked h -> (
      p.p_killed <- true;
      match h.h_k with
      | None ->
        (* A wake or timeout event is already in flight; it will observe
           [p_killed] and discontinue. *)
        ()
      | Some k ->
        h.h_k <- None;
        p.p_state <- Sched;
        push_event eng eng.clock (fun () ->
            reenter eng p (fun () -> discontinue k Killed))))

let alive eng pid =
  match find_proc eng pid with
  | None -> false
  | Some p -> ( match p.p_state with Done -> false | Sched | Run | Blocked _ -> true)

let not_in_process what =
  invalid_arg (Printf.sprintf "Engine.%s: called outside a process" what)

let self () = try perform E_self with Effect.Unhandled _ -> not_in_process "self"

let delay d =
  try perform (E_delay d) with Effect.Unhandled _ -> not_in_process "delay"

let yield () = delay Time.zero

let suspend ?timeout register =
  try perform (E_suspend (timeout, register))
  with Effect.Unhandled _ -> not_in_process "suspend"

let wake eng h =
  match h.h_k with
  | None -> ()
  | Some k ->
    h.h_k <- None;
    let p = h.h_proc in
    p.p_state <- Sched;
    push_event eng eng.clock (fun () -> resume_with eng p k Woken)

let handle_pending h = h.h_k <> None
let handle_pid h = h.h_proc.p_pid

let set_daemon eng pid =
  match find_proc eng pid with
  | None -> invalid_arg "Engine.set_daemon: unknown process"
  | Some p -> p.p_daemon <- true

let blocked_procs eng =
  Hashtbl.fold
    (fun _ p acc ->
      match p.p_state with Blocked _ -> p :: acc | Sched | Run | Done -> acc)
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
    match p.p_state with
    | Blocked h -> (
      match h.h_k with
      | None -> false
      | Some k ->
        h.h_k <- None;
        reenter eng p (fun () -> discontinue k Stalled_waiting);
        true)
    | Sched | Run | Done -> false)

let every eng ~interval f =
  if Time.is_zero interval then invalid_arg "Engine.every: zero interval";
  let smp =
    { smp_interval = interval; smp_next = Time.add eng.clock interval; smp_fn = f }
  in
  eng.samplers <- Array.append eng.samplers [| smp |]

let run ?until eng =
  (match eng.running with
  | Some _ ->
    invalid_arg "Engine.run: called from inside a process"
  | None -> ());
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
    match Pqueue.peek eng.heap with
    | None -> if handle_idle eng then loop ()
    | Some ev when not (within_limit ev.ev_time) -> (
      match until with
      | None -> assert false
      | Some l -> (
        (* Catch up boundaries inside the limit before parking at it. *)
        match sampler_due l with
        | Some s ->
          fire s;
          loop ()
        | None -> eng.clock <- l))
    | Some ev -> (
      match sampler_due ev.ev_time with
      | Some s ->
        fire s;
        loop ()
      | None ->
        let ev = Pqueue.pop_exn eng.heap in
        eng.clock <- ev.ev_time;
        eng.n_events <- eng.n_events + 1;
        ev.ev_run ();
        loop ())
  in
  loop ()

let events_processed eng = eng.n_events
let processes_spawned eng = eng.n_spawned

let blocked_processes eng =
  List.map (fun p -> p.p_pid) (blocked_procs eng)

let live_processes eng =
  Hashtbl.fold
    (fun _ p acc ->
      match p.p_state with Done -> acc | Sched | Run | Blocked _ -> acc + 1)
    eng.procs 0

let runnable_processes eng =
  Hashtbl.fold
    (fun _ p acc ->
      match p.p_state with Sched | Run -> acc + 1 | Blocked _ | Done -> acc)
    eng.procs 0
