(* Tests for the discrete-event engine and its synchronisation
   primitives.  These pin down the semantics the Eden kernel relies on:
   deterministic ordering, hand-off wakeups, timeouts, kills. *)

open Eden_util
open Eden_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let t_ns n = Time.ns n
let t_ms n = Time.ms n

(* ------------------------------------------------------------------ *)
(* Engine basics *)

let test_clock_advances () =
  let eng = Engine.create () in
  let seen = ref [] in
  let _ =
    Engine.spawn eng (fun () ->
        Engine.delay (t_ms 5);
        seen := Time.to_ns (Engine.now eng) :: !seen;
        Engine.delay (t_ms 5);
        seen := Time.to_ns (Engine.now eng) :: !seen)
  in
  Engine.run eng;
  Alcotest.(check (list int))
    "times" [ 10_000_000; 5_000_000 ] !seen

let test_same_time_fifo () =
  (* Events scheduled for the same instant run in schedule order. *)
  let eng = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule_after eng (t_ms 1) (fun () -> order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_interleaving_deterministic () =
  let run_once () =
    let eng = Engine.create ~seed:9L () in
    let log = Buffer.create 64 in
    let worker tag gap =
      ignore
        (Engine.spawn eng ~name:tag (fun () ->
             for _ = 1 to 3 do
               Engine.delay gap;
               Buffer.add_string log tag
             done))
    in
    worker "a" (t_ms 2);
    worker "b" (t_ms 3);
    Engine.run eng;
    Buffer.contents log
  in
  (* a ticks at 2,4,6 ms; b at 3,6,9 ms.  At t=6ms b's resume event was
     scheduled earlier (at t=3ms) than a's (at t=4ms), so b runs first. *)
  Alcotest.(check string) "deterministic" (run_once ()) (run_once ());
  Alcotest.(check string) "expected interleaving" "ababab" (run_once ())

let test_run_until_truncates () =
  let eng = Engine.create () in
  let count = ref 0 in
  let _ =
    Engine.spawn eng (fun () ->
        for _ = 1 to 100 do
          Engine.delay (t_ms 1);
          incr count
        done)
  in
  Engine.run ~until:(t_ms 10) eng;
  check_int "only 10 ticks" 10 !count;
  check_int "clock at limit" 10_000_000 (Time.to_ns (Engine.now eng));
  (* Resuming the run finishes the remaining work. *)
  Engine.run eng;
  check_int "completed" 100 !count

let test_spawn_at () =
  let eng = Engine.create () in
  let fired = ref Time.zero in
  let _ =
    Engine.spawn eng ~at:(t_ms 7) (fun () -> fired := Engine.now eng)
  in
  Engine.run eng;
  check_int "starts at 7ms" 7_000_000 (Time.to_ns !fired)

let test_yield_interleaves () =
  let eng = Engine.create () in
  let order = ref [] in
  let mk tag =
    ignore
      (Engine.spawn eng (fun () ->
           order := (tag ^ "1") :: !order;
           Engine.yield ();
           order := (tag ^ "2") :: !order))
  in
  mk "a";
  mk "b";
  Engine.run eng;
  Alcotest.(check (list string))
    "yield alternates" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !order)

let test_run_reentrancy_guarded () =
  let eng = Engine.create () in
  let caught = ref false in
  let _ =
    Engine.spawn eng (fun () ->
        match Engine.run eng with
        | () -> ()
        | exception Invalid_argument _ -> caught := true)
  in
  Engine.run eng;
  check_bool "nested run rejected" true !caught

let test_outside_process_errors () =
  Alcotest.check_raises "delay outside"
    (Invalid_argument "Engine.delay: called outside a process") (fun () ->
      Engine.delay (t_ms 1));
  Alcotest.check_raises "self outside"
    (Invalid_argument "Engine.self: called outside a process") (fun () ->
      ignore (Engine.self ()))

let test_self_and_alive () =
  let eng = Engine.create () in
  let inner = ref None in
  let pid =
    Engine.spawn eng ~name:"me" (fun () ->
        inner := Some (Engine.self ());
        Engine.delay (t_ms 1))
  in
  check_bool "alive before run" true (Engine.alive eng pid);
  Engine.run eng;
  (match !inner with
  | Some p -> check_bool "self is pid" true (Engine.Pid.equal p pid)
  | None -> Alcotest.fail "body did not run");
  check_bool "dead after" false (Engine.alive eng pid)

(* ------------------------------------------------------------------ *)
(* Kill *)

let test_kill_blocked_runs_finalisers () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let cleaned = ref false in
  let victim =
    Engine.spawn eng (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> ignore (Condition.await cond)))
  in
  Engine.schedule_after eng (t_ms 1) (fun () -> Engine.kill eng victim);
  Engine.run eng;
  check_bool "finaliser ran" true !cleaned;
  check_bool "dead" false (Engine.alive eng victim)

let test_kill_before_start () =
  let eng = Engine.create () in
  let ran = ref false in
  let victim = Engine.spawn eng ~at:(t_ms 5) (fun () -> ran := true) in
  Engine.schedule eng (fun () -> Engine.kill eng victim);
  Engine.run eng;
  check_bool "never ran" false !ran

let test_self_kill () =
  let eng = Engine.create () in
  let after = ref false in
  let reached_protect = ref false in
  let _ =
    Engine.spawn eng (fun () ->
        Fun.protect
          ~finally:(fun () -> reached_protect := true)
          (fun () ->
            Engine.kill eng (Engine.self ());
            after := true))
  in
  Engine.run eng;
  check_bool "code after self-kill skipped" false !after;
  check_bool "finaliser ran" true !reached_protect

let test_kill_idempotent () =
  let eng = Engine.create () in
  let victim = Engine.spawn eng (fun () -> Engine.delay (t_ms 10)) in
  Engine.schedule_after eng (t_ms 1) (fun () ->
      Engine.kill eng victim;
      Engine.kill eng victim);
  Engine.run eng;
  check_bool "dead" false (Engine.alive eng victim)

let test_kill_then_wake_is_noop () =
  (* A process killed while blocked must not be resumed by a later
     signal on the same condition. *)
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let resumed = ref false in
  let victim =
    Engine.spawn eng (fun () ->
        ignore (Condition.await cond);
        resumed := true)
  in
  Engine.schedule_after eng (t_ms 1) (fun () ->
      Engine.kill eng victim;
      Condition.signal cond);
  Engine.run eng;
  check_bool "not resumed" false !resumed

let test_finished_processes_forgotten () =
  (* 50,000 processes finish three ways: they return, they are killed
     while blocked, or they are killed before they start.  The engine
     must keep none of them, so its footprint stays that of an idle
     engine however many processes it has run.  Runs go in rounds of
     100 so the event heap itself stays small. *)
  let eng = Engine.create () in
  let spawn_one i =
    match i mod 3 with
    | 0 -> Engine.spawn eng (fun () -> Engine.delay (t_ns 1))
    | 1 ->
      let p = Engine.spawn eng (fun () -> ignore (Engine.suspend ignore)) in
      Engine.schedule_after eng (t_ns 1) (fun () -> Engine.kill eng p);
      p
    | _ ->
      let p = Engine.spawn eng ~at:(t_ns 1) (fun () -> ()) in
      Engine.kill eng p;
      p
  in
  (* One pid of each kind from the first round. *)
  let finished = Array.sub (Array.init 100 spawn_one) 0 3 in
  Engine.run eng;
  for _ = 2 to 500 do
    for i = 0 to 99 do
      ignore (spawn_one i)
    done;
    Engine.run eng
  done;
  check_int "spawned" 50_000 (Engine.processes_spawned eng);
  check_int "none live" 0 (Engine.live_processes eng);
  let words = Obj.reachable_words (Obj.repr eng) in
  if words > 10_000 then
    Alcotest.failf "engine retains %d words after 50,000 processes" words;
  Array.iter
    (fun pid ->
      check_bool "finished is not alive" false (Engine.alive eng pid);
      let events = Engine.events_processed eng in
      Engine.kill eng pid;
      Engine.run eng;
      check_int "kill of a finished pid schedules nothing" events
        (Engine.events_processed eng))
    finished;
  check_int "still none live" 0 (Engine.live_processes eng)

let test_drained_events_released () =
  (* Once a burst has run, nothing it scheduled may stay reachable from
     the engine: not the callbacks, nor the parked continuations of its
     processes, nor the data either of them captured.  Each captured
     array is tracked weakly; after the run and a full major collection
     none may survive. *)
  let callbacks = 10_000 and procs = 300 in
  let eng = Engine.create () in
  let tracked = Weak.create (callbacks + procs) in
  let sum = ref 0 in
  let capture i =
    let data = Array.make 100 i in
    Weak.set tracked i (Some data);
    data
  in
  let load () =
    for i = 0 to callbacks - 1 do
      let data = capture i in
      Engine.schedule_after eng (t_ns (i mod 97)) (fun () ->
          sum := !sum + data.(0))
    done;
    (* Processes that hold their data across a delay, a wake and a
       timeout. *)
    for j = 0 to procs - 1 do
      let data = capture (callbacks + j) in
      let use () = sum := !sum + data.(0) in
      match j mod 3 with
      | 0 ->
        ignore
          (Engine.spawn eng (fun () ->
               Engine.delay (t_ns 5);
               use ()))
      | 1 ->
        let waiting = ref None in
        ignore
          (Engine.spawn eng (fun () ->
               ignore
                 (Engine.suspend ~timeout:(t_ms 1) (fun h ->
                      waiting := Some h));
               use ()));
        Engine.schedule_after eng (t_ns 10) (fun () ->
            Option.iter (Engine.wake eng) !waiting;
            waiting := None)
      | _ ->
        ignore
          (Engine.spawn eng (fun () ->
               ignore (Engine.suspend ~timeout:(t_ns 20) ignore);
               use ()))
    done
  in
  (Sys.opaque_identity load) ();
  Engine.run eng;
  let n = callbacks + procs in
  check_int "every capture used" (n * (n - 1) / 2) !sum;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to callbacks + procs - 1 do
    if Weak.check tracked i then incr alive
  done;
  check_int "captures reachable after the run" 0 !alive;
  check_int "engine idle" 0 (Engine.live_processes (Sys.opaque_identity eng))

(* Minor words per engine operation: [setup eng n] queues [n] of them,
   once to grow the event heap to size and once measured.  Allocation
   is deterministic for a given build, so the figures are exact and
   each bound sits about 15% above its figure; a schedule callback
   allocates nothing in the engine, so its bound only absorbs the run's
   fixed cost. *)
let engine_words ~n setup =
  let eng = Engine.create () in
  setup eng n;
  Engine.run eng;
  let before = Gc.minor_words () in
  setup eng n;
  Engine.run eng;
  (Gc.minor_words () -. before) /. float_of_int n

let test_engine_allocation () =
  let one = t_ns 1 in
  let delay eng n =
    ignore
      (Engine.spawn eng (fun () ->
           for _ = 1 to n do
             Engine.delay one
           done))
  in
  let round_trip eng n =
    ignore
      (Engine.spawn eng (fun () ->
           let register h = Engine.wake eng h in
           for _ = 1 to n do
             ignore (Engine.suspend register)
           done))
  in
  let callback eng n =
    let f () = () in
    for _ = 1 to n do
      Engine.schedule eng f
    done
  in
  let over =
    List.filter_map
      (fun (what, setup, bound) ->
        let words = engine_words ~n:10_000 setup in
        Printf.printf "minor words per %s: %.2f\n" what words;
        if words > bound then
          Some (Printf.sprintf "%s: %.2f > %.1f" what words bound)
        else None)
      [
        ("delay resume", delay, 8.0);
        ("suspend/wake round trip", round_trip, 12.5);
        ("schedule callback", callback, 0.1);
      ]
  in
  if over <> [] then
    Alcotest.failf "minor words per event over bound: %s"
      (String.concat "; " over)

(* ------------------------------------------------------------------ *)
(* Deadlock detection and daemons *)

let test_stall_detected () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let stalled = ref false in
  let _ =
    Engine.spawn eng (fun () ->
        match Condition.await cond with
        | exception Engine.Stalled_waiting -> stalled := true
        | _ -> ())
  in
  Engine.run eng;
  check_bool "stall reported" true !stalled

let test_stall_raises_when_uncaught () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let _ = Engine.spawn eng (fun () -> ignore (Condition.await cond)) in
  check_bool "raises" true
    (match Engine.run eng with
    | () -> false
    | exception Engine.Stalled_waiting -> true)

let test_daemon_not_stalled () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let woken = ref false in
  let pid =
    Engine.spawn eng (fun () ->
        ignore (Condition.await cond);
        woken := true)
  in
  Engine.set_daemon eng pid;
  Engine.run eng;
  check_bool "daemon survives idle" true (Engine.alive eng pid);
  (* A later run can still wake it. *)
  Engine.schedule eng (fun () -> Condition.signal cond);
  Engine.run eng;
  check_bool "daemon resumed" true !woken

(* ------------------------------------------------------------------ *)
(* Condition *)

let test_condition_signal_wakes_one () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Engine.spawn eng (fun () ->
           ignore (Condition.await cond);
           incr woken))
  done;
  Engine.schedule_after eng (t_ms 1) (fun () ->
      check_int "three waiting" 3 (Condition.waiters cond);
      Condition.signal cond);
  Engine.schedule_after eng (t_ms 2) (fun () -> Condition.broadcast cond);
  Engine.run eng;
  check_int "all eventually woken" 3 !woken

let test_condition_signal_order () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let order = ref [] in
  let waiter tag at =
    ignore
      (Engine.spawn eng ~at (fun () ->
           ignore (Condition.await cond);
           order := tag :: !order))
  in
  waiter "first" (t_ns 1);
  waiter "second" (t_ns 2);
  Engine.schedule_after eng (t_ms 1) (fun () -> Condition.signal cond);
  Engine.schedule_after eng (t_ms 2) (fun () -> Condition.signal cond);
  Engine.run eng;
  Alcotest.(check (list string))
    "fifo wake order" [ "first"; "second" ] (List.rev !order)

let test_condition_timeout () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let result = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        result := Some (Condition.await ~timeout:(t_ms 5) cond))
  in
  Engine.run eng;
  (match !result with
  | Some Engine.Timed_out -> ()
  | Some Engine.Woken -> Alcotest.fail "woken without signal"
  | None -> Alcotest.fail "did not resume");
  check_int "resumed at timeout" 5_000_000 (Time.to_ns (Engine.now eng))

let test_condition_signal_beats_timeout () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let result = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        result := Some (Condition.await ~timeout:(t_ms 5) cond))
  in
  Engine.schedule_after eng (t_ms 2) (fun () -> Condition.signal cond);
  Engine.run eng;
  (match !result with
  | Some Engine.Woken -> ()
  | Some Engine.Timed_out -> Alcotest.fail "timed out despite signal"
  | None -> Alcotest.fail "did not resume")

let test_condition_timeout_entry_skipped () =
  (* After a waiter times out, a later signal must pass to the next
     live waiter, not be absorbed by the stale queue entry. *)
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let first = ref None and second = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        first := Some (Condition.await ~timeout:(t_ms 1) cond))
  in
  let _ =
    Engine.spawn eng ~at:(t_ns 10) (fun () ->
        second := Some (Condition.await cond))
  in
  Engine.schedule_after eng (t_ms 3) (fun () -> Condition.signal cond);
  Engine.run eng;
  check_bool "first timed out" true (!first = Some Engine.Timed_out);
  check_bool "second woken" true (!second = Some Engine.Woken)

let test_stale_handle_ignored () =
  (* A handle names one suspension: once it timed out, waking it must
     not resume the same process's next suspension. *)
  let eng = Engine.create () in
  let stale = ref None and second = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        let first =
          Engine.suspend ~timeout:(t_ms 1) (fun h -> stale := Some h)
        in
        check_bool "first timed out" true (first = Engine.Timed_out);
        second := Some (Engine.suspend ~timeout:(t_ms 5) ignore))
  in
  Engine.schedule_after eng (t_ms 2) (fun () ->
      let h = Option.get !stale in
      check_bool "stale handle not pending" false (Engine.handle_pending h);
      Engine.wake eng h);
  Engine.run eng;
  check_bool "second timed out" true (!second = Some Engine.Timed_out);
  check_int "clock at the second timeout" 6_000_000
    (Time.to_ns (Engine.now eng))

(* ------------------------------------------------------------------ *)
(* Semaphore *)

let test_semaphore_mutex () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:1 in
  let inside = ref 0 and max_inside = ref 0 and done_count = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Engine.spawn eng (fun () ->
           ignore (Semaphore.acquire sem);
           incr inside;
           max_inside := Stdlib.max !max_inside !inside;
           Engine.delay (t_ms 1);
           decr inside;
           Semaphore.release sem;
           incr done_count))
  done;
  Engine.run eng;
  check_int "mutual exclusion" 1 !max_inside;
  check_int "all completed" 5 !done_count;
  check_int "serialised makespan" 5_000_000 (Time.to_ns (Engine.now eng))

let test_semaphore_counting () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:3 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 9 do
    ignore
      (Engine.spawn eng (fun () ->
           ignore (Semaphore.acquire sem);
           incr inside;
           max_inside := Stdlib.max !max_inside !inside;
           Engine.delay (t_ms 1);
           decr inside;
           Semaphore.release sem))
  done;
  Engine.run eng;
  check_int "three at a time" 3 !max_inside;
  check_int "makespan 3ms" 3_000_000 (Time.to_ns (Engine.now eng))

let test_semaphore_timeout () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:0 in
  let got = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        got := Some (Semaphore.acquire ~timeout:(t_ms 2) sem))
  in
  Engine.run eng;
  check_bool "timed out" true (!got = Some false);
  check_int "no permit lost" 0 (Semaphore.permits sem)

let test_semaphore_handoff_no_steal () =
  (* A release while a process waits hands the permit over even if
     another process tries to acquire at the same instant. *)
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:0 in
  let waiter_got = ref false and thief_got = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        ignore (Semaphore.acquire sem);
        waiter_got := true)
  in
  Engine.schedule_after eng (t_ms 1) (fun () ->
      Semaphore.release sem;
      (* Same instant: the permit is already committed to the waiter. *)
      thief_got := Some (Semaphore.try_acquire sem));
  Engine.run eng;
  check_bool "waiter got permit" true !waiter_got;
  check_bool "thief refused" true (!thief_got = Some false)

let test_semaphore_try_acquire () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:1 in
  check_bool "first" true (Semaphore.try_acquire sem);
  check_bool "second refused" false (Semaphore.try_acquire sem);
  Semaphore.release sem;
  check_int "back to one" 1 (Semaphore.permits sem)

let test_semaphore_invalid () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative init"
    (Invalid_argument "Semaphore.create: negative init") (fun () ->
      ignore (Semaphore.create eng ~init:(-1)))

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_buffered () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let received = ref [] in
  let _ =
    Engine.spawn eng (fun () ->
        check_bool "send 1" true (Mailbox.send mb 1);
        check_bool "send 2" true (Mailbox.send mb 2);
        Engine.delay (t_ms 1);
        check_bool "send 3" true (Mailbox.send mb 3))
  in
  let _ =
    Engine.spawn eng ~at:(t_ns 10) (fun () ->
        for _ = 1 to 3 do
          match Mailbox.recv mb with
          | Some v -> received := v :: !received
          | None -> Alcotest.fail "unexpected timeout"
        done)
  in
  Engine.run eng;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !received)

let test_mailbox_blocking_recv () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref None and got_at = ref Time.zero in
  let _ =
    Engine.spawn eng (fun () ->
        got := Mailbox.recv mb;
        got_at := Engine.now eng)
  in
  let _ =
    Engine.spawn eng ~at:(t_ms 4) (fun () ->
        check_bool "sent" true (Mailbox.send mb 42))
  in
  Engine.run eng;
  check_bool "value" true (!got = Some 42);
  check_int "at send time" 4_000_000 (Time.to_ns !got_at)

let test_mailbox_recv_timeout () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  let got = ref (Some 0) in
  let _ =
    Engine.spawn eng (fun () -> got := Mailbox.recv ~timeout:(t_ms 2) mb)
  in
  Engine.run eng;
  check_bool "timeout none" true (!got = None)

let test_mailbox_capacity_blocks_sender () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 eng in
  let sent_second_at = ref Time.zero in
  let _ =
    Engine.spawn eng (fun () ->
        check_bool "first send" true (Mailbox.send mb 1);
        check_bool "second send" true (Mailbox.send mb 2);
        sent_second_at := Engine.now eng)
  in
  let _ =
    Engine.spawn eng ~at:(t_ms 5) (fun () ->
        check_bool "recv" true (Mailbox.recv mb = Some 1))
  in
  Engine.run eng;
  check_int "sender blocked until space" 5_000_000
    (Time.to_ns !sent_second_at);
  check_int "one left" 1 (Mailbox.length mb)

let test_mailbox_send_timeout () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 eng in
  let ok = ref true in
  let _ =
    Engine.spawn eng (fun () ->
        check_bool "fill" true (Mailbox.send mb 1);
        ok := Mailbox.send ~timeout:(t_ms 2) mb 2)
  in
  Engine.run eng;
  check_bool "send timed out" false !ok;
  check_int "only first buffered" 1 (Mailbox.length mb)

let test_mailbox_handoff_no_steal () =
  (* A message handed to a blocked receiver cannot be taken by a
     try_recv issued at the same instant. *)
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let waiter_got = ref None and thief_got = ref None in
  let _ = Engine.spawn eng (fun () -> waiter_got := Mailbox.recv mb) in
  Engine.schedule_after eng (t_ms 1) (fun () ->
      check_bool "sent" true (Mailbox.try_send mb 7);
      thief_got := Mailbox.try_recv mb);
  Engine.run eng;
  check_bool "waiter got it" true (!waiter_got = Some 7);
  check_bool "thief got nothing" true (!thief_got = None)

let test_mailbox_try_ops () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 eng in
  check_bool "try_send ok" true (Mailbox.try_send mb 1);
  check_bool "try_send full" false (Mailbox.try_send mb 2);
  check_bool "try_recv" true (Mailbox.try_recv mb = Some 1);
  check_bool "try_recv empty" true (Mailbox.try_recv mb = None)

(* ------------------------------------------------------------------ *)
(* Promise *)

let test_promise_fill_then_await () =
  let eng = Engine.create () in
  let pr = Promise.create eng in
  check_bool "fill succeeds" true (Promise.fill pr 42);
  check_bool "second fill refused" false (Promise.fill pr 43);
  Alcotest.(check (option int)) "peek" (Some 42) (Promise.peek pr);
  let got = ref None in
  let _ = Engine.spawn eng (fun () -> got := Promise.await pr) in
  Engine.run eng;
  Alcotest.(check (option int)) "await filled" (Some 42) !got

let test_promise_await_then_fill () =
  let eng = Engine.create () in
  let pr = Promise.create eng in
  let got_a = ref None and got_b = ref None and filled_at = ref Time.zero in
  let _ = Engine.spawn eng (fun () -> got_a := Promise.await pr) in
  let _ = Engine.spawn eng (fun () -> got_b := Promise.await pr) in
  Engine.schedule_after eng (t_ms 3) (fun () ->
      ignore (Promise.fill pr 7);
      filled_at := Engine.now eng);
  Engine.run eng;
  check_bool "both waiters woken" true (!got_a = Some 7 && !got_b = Some 7);
  check_int "at fill time" 3_000_000 (Time.to_ns !filled_at)

let test_promise_timeout () =
  let eng = Engine.create () in
  let pr : int Promise.t = Promise.create eng in
  let got = ref (Some 0) in
  let _ =
    Engine.spawn eng (fun () -> got := Promise.await ~timeout:(t_ms 2) pr)
  in
  Engine.run eng;
  check_bool "timed out" true (!got = None);
  check_bool "still unfilled" false (Promise.is_filled pr)

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serialises () =
  let eng = Engine.create () in
  let cpu = Resource.create eng ~servers:2 ~name:"cpu" in
  for _ = 1 to 6 do
    ignore (Engine.spawn eng (fun () -> Resource.use cpu (t_ms 10)))
  done;
  Engine.run eng;
  check_int "makespan = 3 batches" 30_000_000 (Time.to_ns (Engine.now eng));
  check_int "all jobs" 6 (Resource.jobs_completed cpu);
  check_int "busy time" 60_000_000 (Time.to_ns (Resource.busy_time cpu));
  Alcotest.(check (float 1e-9))
    "utilisation" 1.0
    (Resource.utilisation cpu ~over:(Engine.now eng))

let test_resource_wait_stats () =
  let eng = Engine.create () in
  let r = Resource.create eng ~servers:1 ~name:"disk" in
  for _ = 1 to 3 do
    ignore (Engine.spawn eng (fun () -> Resource.use r (t_ms 2)))
  done;
  Engine.run eng;
  let w = Resource.wait_stats r in
  check_int "three waits" 3 (Stats.count w);
  Alcotest.(check (float 1e-9)) "first waits 0" 0.0 (Stats.min_value w);
  Alcotest.(check (float 1e-9)) "last waits 4ms" 0.004 (Stats.max_value w)

let test_resource_invalid () =
  let eng = Engine.create () in
  Alcotest.check_raises "zero servers"
    (Invalid_argument "Resource.create: servers must be positive") (fun () ->
      ignore (Resource.create eng ~servers:0 ~name:"x"))

(* ------------------------------------------------------------------ *)
(* Samplers *)

(* Regression: [every] used to keep a single sampler, so a second
   registration silently replaced the first (arming the health plane
   stopped the hedge estimator's tick).  Both must fire, at a shared
   boundary in registration order, without touching the event count. *)
let test_two_samplers_fire () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.every eng ~interval:(t_ms 1) (fun () ->
      log := ("a", Time.to_ns (Engine.now eng)) :: !log);
  Engine.every eng ~interval:(t_ms 2) (fun () ->
      log := ("b", Time.to_ns (Engine.now eng)) :: !log);
  Engine.schedule_after eng (t_ms 4) (fun () -> ());
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "both samplers, registration order on ties"
    [
      ("a", 1_000_000); ("a", 2_000_000); ("b", 2_000_000); ("a", 3_000_000);
      ("a", 4_000_000); ("b", 4_000_000);
    ]
    (List.rev !log);
  check_int "samplers are not events" 1 (Engine.events_processed eng)

(* ------------------------------------------------------------------ *)
(* Engine stress / properties *)

let prop_many_processes_complete =
  QCheck.Test.make ~name:"n processes with random delays all complete"
    ~count:30
    QCheck.(pair (int_range 1 50) (int_range 1 1000))
    (fun (n, seed) ->
      let eng = Engine.create ~seed:(Int64.of_int seed) () in
      let rng = Engine.fork_rng eng in
      let completed = ref 0 in
      for _ = 1 to n do
        let steps = 1 + Splitmix.int rng 5 in
        ignore
          (Engine.spawn eng (fun () ->
               for _ = 1 to steps do
                 Engine.delay (Time.us (1 + Splitmix.int rng 1000))
               done;
               incr completed))
      done;
      Engine.run eng;
      !completed = n && Engine.live_processes eng = 0)

(* Neither side of an uncontended semaphore allocates: [acquire]'s
   registration is made once per semaphore, and [release] hands off
   without a closure. *)
let test_semaphore_uncontended_words () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:1 in
  let n = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Semaphore.acquire sem : bool);
    Semaphore.release sem
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Printf.printf "minor words per uncontended acquire + release: %.2f\n" words;
  if words > 0.0 then
    Alcotest.failf "%.2f minor words per acquire + release, want 0" words

(* [a] holds the only permit and [b] waits for it; at 1 ms [at_release]
   runs in [a]'s place, with [b]'s pid, and the test checks what is
   left once [b] has died. *)
let semaphore_kill_case at_release =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:1 in
  let b = ref None in
  ignore
    (Engine.spawn eng ~name:"a" (fun () ->
         check_bool "a holds" true (Semaphore.acquire sem);
         Engine.delay (t_ms 1);
         at_release eng sem (Option.get !b)));
  b :=
    Some
      (Engine.spawn eng ~name:"b" (fun () ->
           ignore (Semaphore.acquire sem : bool);
           Alcotest.fail "b ran after it was killed"));
  Engine.run eng;
  check_bool "b is gone" false (Engine.alive eng (Option.get !b));
  check_int "the permit survives, once" 1 (Semaphore.permits sem);
  check_int "nobody waits" 0 (Semaphore.waiters sem)

(* Released to [b], then [b] is killed before it runs: [b] passes the
   permit on rather than taking it to its grave. *)
let test_semaphore_kill_after_handoff () =
  semaphore_kill_case (fun eng sem b ->
      Semaphore.release sem;
      Engine.kill eng b)

(* Killed first, then released while [b]'s stale handle is still
   queued: the release skips it, and [b], never woken, must not
   release again. *)
let test_semaphore_kill_before_release () =
  semaphore_kill_case (fun eng sem b ->
      Engine.kill eng b;
      Semaphore.release sem)

(* A message handed to a blocked receiver that is killed before it runs
   goes to the next receiver, or back to the head of the buffer. *)
let test_mailbox_kill_after_handoff () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let doomed =
    Engine.spawn eng ~name:"doomed" (fun () ->
        ignore (Mailbox.recv mb : int option);
        Alcotest.fail "the killed receiver ran")
  in
  Engine.schedule_after eng (t_ms 1) (fun () ->
      check_bool "handed" true (Mailbox.try_send mb 1);
      check_bool "buffered" true (Mailbox.try_send mb 2);
      Engine.kill eng doomed);
  Engine.run eng;
  Alcotest.(check (list (option int)))
    "nothing lost, order kept" [ Some 1; Some 2; None ]
    (List.init 3 (fun _ -> Mailbox.try_recv mb));
  let got = ref [] in
  let first =
    Engine.spawn eng ~name:"first" (fun () ->
        ignore (Mailbox.recv mb : int option);
        Alcotest.fail "the killed receiver ran")
  in
  ignore
    (Engine.spawn eng ~name:"second" (fun () ->
         got := Mailbox.recv mb :: !got));
  Engine.schedule_after eng (t_ms 1) (fun () ->
      check_bool "handed" true (Mailbox.try_send mb 3);
      Engine.kill eng first);
  Engine.run eng;
  Alcotest.(check (list (option int))) "next receiver" [ Some 3 ] !got;
  check_int "buffer empty" 0 (Mailbox.length mb)

let prop_semaphore_never_oversubscribed =
  QCheck.Test.make ~name:"semaphore never oversubscribed" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 5 30))
    (fun (permits, jobs) ->
      let eng = Engine.create () in
      let sem = Semaphore.create eng ~init:permits in
      let inside = ref 0 and peak = ref 0 in
      for _ = 1 to jobs do
        ignore
          (Engine.spawn eng (fun () ->
               ignore (Semaphore.acquire sem);
               incr inside;
               peak := Stdlib.max !peak !inside;
               Engine.delay (Time.us 100);
               decr inside;
               Semaphore.release sem))
      done;
      Engine.run eng;
      !peak <= permits)

(* Fuzz the engine with a random mix of delays, semaphore traffic,
   mailbox traffic, child spawning and kills: the run must terminate
   with every non-daemon process finished and no stall. *)
let prop_engine_fuzz =
  QCheck.Test.make ~name:"random process soup terminates cleanly" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let eng = Engine.create ~seed:(Int64.of_int (seed + 1)) () in
      let rng = Splitmix.create (Int64.of_int seed) in
      let sem = Semaphore.create eng ~init:2 in
      let mb = Mailbox.create ~capacity:4 eng in
      let pids = ref [] in
      let rec body depth () =
        for _ = 1 to Splitmix.int rng 5 do
          match Splitmix.int rng 6 with
          | 0 -> Engine.delay (Time.us (Splitmix.int rng 500))
          | 1 ->
            if Semaphore.acquire ~timeout:(Time.ms 2) sem then begin
              Engine.delay (Time.us (Splitmix.int rng 100));
              Semaphore.release sem
            end
          | 2 -> ignore (Mailbox.send ~timeout:(Time.ms 1) mb (Splitmix.int rng 10))
          | 3 -> ignore (Mailbox.recv ~timeout:(Time.ms 1) mb)
          | 4 ->
            if depth < 2 then begin
              let pid = Engine.spawn eng (body (depth + 1)) in
              pids := pid :: !pids
            end
          | _ -> (
            match !pids with
            | [] -> ()
            | pid :: rest ->
              pids := rest;
              (* Never kill ourselves here: self-kill raises Killed,
                 which is exercised elsewhere. *)
              if not (Engine.Pid.equal pid (Engine.self ())) then
                Engine.kill eng pid)
        done
      in
      for _ = 1 to 10 do
        pids := Engine.spawn eng (body 0) :: !pids
      done;
      (match Engine.run eng with
      | () -> ()
      | exception Engine.Stalled_waiting -> ());
      Engine.live_processes eng = 0)

let prop_mailbox_fifo =
  QCheck.Test.make ~name:"mailbox delivers in order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) small_int)
    (fun xs ->
      let eng = Engine.create () in
      let mb = Mailbox.create eng in
      let out = ref [] in
      let _ =
        Engine.spawn eng (fun () ->
            List.iter
              (fun x ->
                ignore (Mailbox.send mb x);
                Engine.delay (Time.us 1))
              xs)
      in
      let _ =
        Engine.spawn eng (fun () ->
            for _ = 1 to List.length xs do
              match Mailbox.recv mb with
              | Some v -> out := v :: !out
              | None -> ()
            done)
      in
      Engine.run eng;
      List.rev !out = xs)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "eden_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "deterministic" `Quick
            test_interleaving_deterministic;
          Alcotest.test_case "run until" `Quick test_run_until_truncates;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "yield" `Quick test_yield_interleaves;
          Alcotest.test_case "outside process" `Quick
            test_outside_process_errors;
          Alcotest.test_case "nested run rejected" `Quick
            test_run_reentrancy_guarded;
          Alcotest.test_case "self and alive" `Quick test_self_and_alive;
          Alcotest.test_case "stale handle ignored" `Quick
            test_stale_handle_ignored;
          qt prop_many_processes_complete;
          qt prop_engine_fuzz;
          Alcotest.test_case "words per event" `Quick test_engine_allocation;
        ] );
      ( "kill",
        [
          Alcotest.test_case "blocked + finalisers" `Quick
            test_kill_blocked_runs_finalisers;
          Alcotest.test_case "before start" `Quick test_kill_before_start;
          Alcotest.test_case "self kill" `Quick test_self_kill;
          Alcotest.test_case "idempotent" `Quick test_kill_idempotent;
          Alcotest.test_case "kill then wake" `Quick
            test_kill_then_wake_is_noop;
          Alcotest.test_case "finished processes forgotten" `Quick
            test_finished_processes_forgotten;
          Alcotest.test_case "drained events released" `Quick
            test_drained_events_released;
        ] );
      ( "stall",
        [
          Alcotest.test_case "detected" `Quick test_stall_detected;
          Alcotest.test_case "raises uncaught" `Quick
            test_stall_raises_when_uncaught;
          Alcotest.test_case "daemons exempt" `Quick test_daemon_not_stalled;
        ] );
      ( "condition",
        [
          Alcotest.test_case "signal wakes one" `Quick
            test_condition_signal_wakes_one;
          Alcotest.test_case "fifo order" `Quick test_condition_signal_order;
          Alcotest.test_case "timeout" `Quick test_condition_timeout;
          Alcotest.test_case "signal beats timeout" `Quick
            test_condition_signal_beats_timeout;
          Alcotest.test_case "stale entries skipped" `Quick
            test_condition_timeout_entry_skipped;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutex" `Quick test_semaphore_mutex;
          Alcotest.test_case "counting" `Quick test_semaphore_counting;
          Alcotest.test_case "timeout" `Quick test_semaphore_timeout;
          Alcotest.test_case "handoff" `Quick test_semaphore_handoff_no_steal;
          Alcotest.test_case "try_acquire" `Quick test_semaphore_try_acquire;
          Alcotest.test_case "invalid" `Quick test_semaphore_invalid;
          qt prop_semaphore_never_oversubscribed;
          Alcotest.test_case "uncontended allocates nothing" `Quick
            test_semaphore_uncontended_words;
          Alcotest.test_case "kill after hand-off keeps the permit" `Quick
            test_semaphore_kill_after_handoff;
          Alcotest.test_case "kill before release mints no permit" `Quick
            test_semaphore_kill_before_release;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "buffered" `Quick test_mailbox_buffered;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
          Alcotest.test_case "capacity blocks sender" `Quick
            test_mailbox_capacity_blocks_sender;
          Alcotest.test_case "send timeout" `Quick test_mailbox_send_timeout;
          Alcotest.test_case "handoff" `Quick test_mailbox_handoff_no_steal;
          Alcotest.test_case "try ops" `Quick test_mailbox_try_ops;
          qt prop_mailbox_fifo;
          Alcotest.test_case "kill after hand-off keeps the message" `Quick
            test_mailbox_kill_after_handoff;
        ] );
      ( "promise",
        [
          Alcotest.test_case "fill then await" `Quick
            test_promise_fill_then_await;
          Alcotest.test_case "await then fill" `Quick
            test_promise_await_then_fill;
          Alcotest.test_case "timeout" `Quick test_promise_timeout;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialises" `Quick test_resource_serialises;
          Alcotest.test_case "wait stats" `Quick test_resource_wait_stats;
          Alcotest.test_case "invalid" `Quick test_resource_invalid;
        ] );
      ( "sampler",
        [ Alcotest.test_case "two samplers both fire" `Quick test_two_samplers_fire ] );
    ]
