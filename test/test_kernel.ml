(* End-to-end tests of the Eden kernel: objects, capabilities,
   location-independent invocation, invocation classes, checkpointing,
   crash/reincarnation, node failure, mobility and replication. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Api

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Error.to_string e)

let expect_error label expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" label (Error.to_string expected)
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: got %s" label (Error.to_string e))
      true
      (Error.equal e expected)

let int_result label = function
  | Ok [ Value.Int n ] -> n
  | Ok vs ->
    Alcotest.failf "%s: unexpected result %s" label
      (String.concat ";" (List.map (Format.asprintf "%a" Value.pp) vs))
  | Error e -> Alcotest.failf "%s: %s" label (Error.to_string e)

(* A counter: the canonical small Eden type. *)
let counter_ops =
  [
    Typemgr.operation "get" ~mutates:false (fun ctx args ->
        let* () = no_args args in
        let* n = int_arg (ctx.get_repr ()) in
        reply [ Value.Int n ]);
    Typemgr.operation "incr" (fun ctx args ->
        let* () = no_args args in
        let* n = int_arg (ctx.get_repr ()) in
        let* () = ctx.set_repr (Value.Int (n + 1)) in
        reply [ Value.Int (n + 1) ]);
    Typemgr.operation "add" (fun ctx args ->
        let* v = arg1 args in
        let* k = int_arg v in
        let* n = int_arg (ctx.get_repr ()) in
        let* () = ctx.set_repr (Value.Int (n + k)) in
        reply [ Value.Int (n + k) ]);
    Typemgr.operation "checkpoint" (fun ctx args ->
        let* () = no_args args in
        let* () = ctx.checkpoint () in
        reply_unit);
    Typemgr.operation "set_reliability_remote" (fun ctx args ->
        let* v = arg1 args in
        let* site = int_arg v in
        let* () = ctx.set_reliability (Reliability.Remote site) in
        reply_unit);
    Typemgr.operation "set_reliability_mirrored" (fun ctx args ->
        let* v = arg1 args in
        let* l = Value.to_list v |> Result.map_error (fun m -> Error.Bad_arguments m) in
        let sites =
          List.filter_map (fun x -> Result.to_option (Value.to_int x)) l
        in
        let* () = ctx.set_reliability (Reliability.Mirrored sites) in
        reply_unit);
    Typemgr.operation "crash" (fun ctx args ->
        let* () = no_args args in
        ctx.crash ();
        user_error "unreachable after crash");
    Typemgr.operation "burn" (fun ctx args ->
        (* consume the given number of microseconds of CPU *)
        let* v = arg1 args in
        let* us = int_arg v in
        ctx.compute (Time.us us);
        reply_unit);
    Typemgr.operation "move_self" (fun ctx args ->
        let* v = arg1 args in
        let* dst = int_arg v in
        let* () = ctx.move_to dst in
        reply [ Value.Int (ctx.node_id ()) ]);
    Typemgr.operation "freeze_self" (fun ctx args ->
        let* () = no_args args in
        ctx.freeze ();
        reply_unit);
  ]

let counter_type = Typemgr.make_exn ~name:"counter" counter_ops

(* Run [body] as a driver process inside a fresh cluster and return its
   result after the simulation finishes. *)
let with_cluster ?seed ?(n = 3) ?(types = [ counter_type ]) body =
  let cl = Cluster.default ?seed ~n_nodes:n () in
  List.iter (Cluster.register_type cl) types;
  let result = ref None in
  let _ = Cluster.in_process cl (fun () -> result := Some (body cl)) in
  Cluster.run cl;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "driver process did not complete"

let new_counter cl ~node init =
  ok_or_fail "create counter"
    (Cluster.create_object cl ~node ~type_name:"counter" (Value.Int init))

(* ------------------------------------------------------------------ *)
(* Creation and local invocation *)

let test_create_and_invoke_local () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 7 in
      let r = Cluster.invoke cl ~from:0 cap ~op:"get" [] in
      check_int "initial" 7 (int_result "get" r);
      let r = Cluster.invoke cl ~from:0 cap ~op:"incr" [] in
      check_int "incremented" 8 (int_result "incr" r);
      let r = Cluster.invoke cl ~from:0 cap ~op:"add" [ Value.Int 10 ] in
      check_int "added" 18 (int_result "add" r))

let test_unknown_type () =
  with_cluster (fun cl ->
      match Cluster.create_object cl ~node:0 ~type_name:"nope" Value.Unit with
      | Ok _ -> Alcotest.fail "created object of unknown type"
      | Error (Error.Bad_arguments _) -> ()
      | Error e -> Alcotest.failf "unexpected error %s" (Error.to_string e))

let test_no_such_operation () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      expect_error "bogus op"
        (Error.No_such_operation "frobnicate")
        (Cluster.invoke cl ~from:0 cap ~op:"frobnicate" []))

let test_bad_arguments () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      (match Cluster.invoke cl ~from:0 cap ~op:"add" [ Value.Str "x" ] with
      | Error (Error.Bad_arguments _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Bad_arguments");
      match Cluster.invoke cl ~from:0 cap ~op:"add" [] with
      | Error (Error.Bad_arguments _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected arity error")

let test_invoke_bogus_name () =
  with_cluster (fun cl ->
      let ghost =
        Capability.make (Name.make ~birth_node:0 ~serial:424242) Rights.all
      in
      expect_error "ghost" Error.No_such_object
        (Cluster.invoke cl ~from:0 ghost ~op:"get" []))

(* ------------------------------------------------------------------ *)
(* Rights *)

let test_rights_restriction () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 1 in
      let weak = Capability.restrict cap Rights.none in
      expect_error "no invoke right" (Error.Rights_violation "get")
        (Cluster.invoke cl ~from:0 weak ~op:"get" []);
      let invoke_only = Capability.restrict cap Rights.invoke_only in
      check_int "invoke-only can read" 1
        (int_result "get" (Cluster.invoke cl ~from:0 invoke_only ~op:"get" [])))

let test_aux_rights_required () =
  let guarded =
    Typemgr.make_exn ~name:"guarded"
      [
        Typemgr.operation "read" ~mutates:false (fun ctx args ->
            let* () = no_args args in
            reply [ ctx.get_repr () ]);
        Typemgr.operation "write" ~required:[ Rights.Aux 0 ] (fun ctx args ->
            let* v = arg1 args in
            let* () = ctx.set_repr v in
            reply_unit);
      ]
  in
  with_cluster ~types:[ guarded ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"guarded"
             (Value.Int 0))
      in
      let read_only =
        Capability.restrict cap (Rights.of_list [ Rights.Invoke ])
      in
      expect_error "write denied" (Error.Rights_violation "write")
        (Cluster.invoke cl ~from:0 read_only ~op:"write" [ Value.Int 9 ]);
      ignore
        (ok_or_fail "write with full cap"
           (Cluster.invoke cl ~from:0 cap ~op:"write" [ Value.Int 9 ]));
      check_int "readable" 9
        (int_result "read"
           (Cluster.invoke cl ~from:0 read_only ~op:"read" [])))

let test_move_requires_right () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      let weak = Capability.restrict cap Rights.invoke_only in
      expect_error "move denied" (Error.Rights_violation "move")
        (Cluster.move cl weak ~to_node:1))

(* ------------------------------------------------------------------ *)
(* Remote invocation *)

let test_remote_invoke () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 100 in
      let r = Cluster.invoke cl ~from:1 cap ~op:"incr" [] in
      check_int "remote incr" 101 (int_result "incr" r);
      check_bool "remote path used" true
        (Cluster.stats_remote_invocations cl >= 1);
      (* And the change is visible locally. *)
      check_int "visible at home" 101
        (int_result "get" (Cluster.invoke cl ~from:0 cap ~op:"get" [])))

let test_remote_latency_exceeds_local () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      let time_invoke from =
        let t0 = Engine.now (Cluster.engine cl) in
        ignore (ok_or_fail "get" (Cluster.invoke cl ~from cap ~op:"get" []));
        Time.to_ns (Time.diff (Engine.now (Cluster.engine cl)) t0)
      in
      let local = time_invoke 0 in
      let remote_cold = time_invoke 1 in
      let remote_warm = time_invoke 1 in
      check_bool "remote slower than local" true (remote_cold > local);
      check_bool "hint cache helps" true (remote_warm < remote_cold);
      check_bool "warm remote still slower than local" true
        (remote_warm > local))

let test_capability_passing () =
  (* An adder object that receives a capability for a counter and
     invokes it: object-to-object invocation with cap parameters. *)
  let client =
    Typemgr.make_exn ~name:"client"
      [
        Typemgr.operation "poke" (fun ctx args ->
            let* v = arg1 args in
            let* target = cap_arg v in
            let* r = ctx.invoke target ~op:"incr" [] in
            reply r);
      ]
  in
  with_cluster ~types:[ counter_type; client ] (fun cl ->
      let counter = new_counter cl ~node:0 5 in
      let client_cap =
        ok_or_fail "create client"
          (Cluster.create_object cl ~node:2 ~type_name:"client" Value.Unit)
      in
      let r =
        Cluster.invoke cl ~from:1 client_cap ~op:"poke"
          [ Value.Cap counter ]
      in
      check_int "chained invocation" 6 (int_result "poke" r))

let test_remote_create () =
  let spawner =
    Typemgr.make_exn ~name:"spawner"
      [
        Typemgr.operation "spawn_counter" (fun ctx args ->
            let* v = arg1 args in
            let* node = int_arg v in
            let* cap =
              ctx.create_object ~type_name:"counter" ~node (Value.Int 55)
            in
            reply [ Value.Cap cap ]);
      ]
  in
  with_cluster ~types:[ counter_type; spawner ] (fun cl ->
      let sp =
        ok_or_fail "create spawner"
          (Cluster.create_object cl ~node:0 ~type_name:"spawner" Value.Unit)
      in
      match Cluster.invoke cl ~from:0 sp ~op:"spawn_counter" [ Value.Int 2 ] with
      | Ok [ Value.Cap c ] ->
        check_bool "created on node 2" true (Cluster.where_is cl c = Some 2);
        check_int "value" 55
          (int_result "get" (Cluster.invoke cl ~from:1 c ~op:"get" []))
      | Ok _ -> Alcotest.fail "unexpected reply shape"
      | Error e -> Alcotest.failf "spawn failed: %s" (Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Invocation classes and intra-object concurrency *)

let concurrent_type limit =
  Typemgr.make_exn ~name:(Printf.sprintf "conc%d" limit)
    ~classes:(Opclass.one_class ~name:"all" ~operations:[ "work" ] ~limit)
    [
      Typemgr.operation "work" (fun ctx args ->
          let* v = arg1 args in
          let* ms = int_arg v in
          (* Block on virtual time (not CPU) so concurrency is bounded
             only by the class limit. *)
          ignore ms;
          ignore ctx;
          Engine.delay (Time.ms ms);
          reply_unit);
    ]

let run_class_experiment ~limit ~jobs =
  let tm = concurrent_type limit in
  with_cluster ~types:[ tm ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0
             ~type_name:(Typemgr.name tm) Value.Unit)
      in
      let t0 = Engine.now (Cluster.engine cl) in
      let promises =
        List.init jobs (fun _ ->
            Cluster.invoke_async cl ~from:0 cap ~op:"work" [ Value.Int 10 ])
      in
      List.iter
        (fun pr ->
          match Promise.await pr with
          | Some (Ok _) -> ()
          | Some (Error e) -> Alcotest.failf "work failed: %s" (Error.to_string e)
          | None -> Alcotest.fail "promise unfilled")
        promises;
      Time.to_ns (Time.diff (Engine.now (Cluster.engine cl)) t0))

let test_class_limit_serialises () =
  let serial = run_class_experiment ~limit:1 ~jobs:4 in
  let parallel = run_class_experiment ~limit:4 ~jobs:4 in
  (* Four 10ms operations: limit 1 must take at least 40ms of blocking
     time; limit 4 should overlap them almost fully. *)
  check_bool "serial >= 40ms" true (serial >= 40_000_000);
  check_bool "parallel < 2x one op" true (parallel < 25_000_000);
  check_bool "parallel much faster" true (parallel * 2 < serial)

let test_distinct_classes_concurrent () =
  let tm =
    Typemgr.make_exn ~name:"twoclass"
      ~classes:
        [
          { Opclass.class_name = "a"; operations = [ "opa" ]; limit = 1 };
          { Opclass.class_name = "b"; operations = [ "opb" ]; limit = 1 };
        ]
      [
        Typemgr.operation "opa" (fun _ args ->
            let* () = no_args args in
            Engine.delay (Time.ms 20);
            reply_unit);
        Typemgr.operation "opb" (fun _ args ->
            let* () = no_args args in
            Engine.delay (Time.ms 20);
            reply_unit);
      ]
  in
  with_cluster ~types:[ tm ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"twoclass" Value.Unit)
      in
      let t0 = Engine.now (Cluster.engine cl) in
      let pa = Cluster.invoke_async cl ~from:0 cap ~op:"opa" [] in
      let pb = Cluster.invoke_async cl ~from:0 cap ~op:"opb" [] in
      ignore (Promise.await pa);
      ignore (Promise.await pb);
      let elapsed = Time.to_ns (Time.diff (Engine.now (Cluster.engine cl)) t0) in
      (* The two classes overlap: well under 40ms. *)
      check_bool "classes overlap" true (elapsed < 30_000_000))

let test_ports_and_behaviours () =
  (* A behaviour drains a port and accumulates into the repr: the
     paper's "caretaker" pattern. *)
  let tm =
    Typemgr.make_exn ~name:"accumulator"
      ~behaviours:
        [
          {
            Typemgr.b_name = "drain";
            b_body =
              (fun ctx ->
                let port = ctx.port "in" in
                let rec loop () =
                  match Eden_sim.Mailbox.recv port with
                  | Some v -> (
                    match (Value.to_int v, Value.to_int (ctx.get_repr ())) with
                    | Ok k, Ok n ->
                      ignore (ctx.set_repr (Value.Int (n + k)));
                      loop ()
                    | _ -> loop ())
                  | None -> loop ()
                in
                loop ());
          };
        ]
      [
        Typemgr.operation "feed" (fun ctx args ->
            let* v = arg1 args in
            let* _k = int_arg v in
            ignore (Eden_sim.Mailbox.try_send (ctx.port "in") v);
            reply_unit);
        Typemgr.operation "total" ~mutates:false (fun ctx args ->
            let* () = no_args args in
            reply [ ctx.get_repr () ]);
      ]
  in
  with_cluster ~types:[ tm ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"accumulator"
             (Value.Int 0))
      in
      List.iter
        (fun k ->
          ignore
            (ok_or_fail "feed"
               (Cluster.invoke cl ~from:0 cap ~op:"feed" [ Value.Int k ])))
        [ 1; 2; 3; 4 ];
      (* Give the behaviour time to drain. *)
      Engine.delay (Time.ms 10);
      check_int "behaviour accumulated" 10
        (int_result "total" (Cluster.invoke cl ~from:0 cap ~op:"total" [])))

let test_semaphore_no_lost_updates () =
  let tm =
    Typemgr.make_exn ~name:"critical2"
      ~classes:
        (Opclass.one_class ~name:"all" ~operations:[ "bump"; "get" ] ~limit:8)
      [
        Typemgr.operation "bump" (fun ctx args ->
            let* () = no_args args in
            let mutex = ctx.semaphore "mutex" ~init:1 in
            ignore (Eden_sim.Semaphore.acquire mutex);
            let* n = int_arg (ctx.get_repr ()) in
            Engine.delay (Time.ms 1);
            let* () = ctx.set_repr (Value.Int (n + 1)) in
            Eden_sim.Semaphore.release mutex;
            reply_unit);
        Typemgr.operation "get" ~mutates:false (fun ctx args ->
            let* () = no_args args in
            reply [ ctx.get_repr () ]);
      ]
  in
  with_cluster ~types:[ tm ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"critical2"
             (Value.Int 0))
      in
      let ps =
        List.init 10 (fun _ ->
            Cluster.invoke_async cl ~from:0 cap ~op:"bump" [])
      in
      List.iter (fun p -> ignore (Promise.await p)) ps;
      check_int "no lost updates" 10
        (int_result "get" (Cluster.invoke cl ~from:0 cap ~op:"get" [])))

(* ------------------------------------------------------------------ *)
(* Checkpoint, crash, reincarnation *)

let test_crash_without_checkpoint_loses_object () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 3 in
      expect_error "crash op reports crash" Error.Object_crashed
        (Cluster.invoke cl ~from:0 cap ~op:"crash" []);
      expect_error "object gone" Error.No_such_object
        (Cluster.invoke cl ~from:0 cap ~op:"get" []);
      check_bool "not active" false (Cluster.is_active cl cap))

let test_checkpoint_then_crash_reincarnates () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      ignore (ok_or_fail "add" (Cluster.invoke cl ~from:0 cap ~op:"add" [ Value.Int 41 ]));
      ignore (ok_or_fail "ckpt" (Cluster.invoke cl ~from:0 cap ~op:"checkpoint" []));
      (* Mutate after the checkpoint: this update must be lost. *)
      ignore (ok_or_fail "incr" (Cluster.invoke cl ~from:0 cap ~op:"incr" []));
      expect_error "crash" Error.Object_crashed
        (Cluster.invoke cl ~from:0 cap ~op:"crash" []);
      check_bool "passive now" false (Cluster.is_active cl cap);
      (* Next invocation reincarnates from the checkpoint. *)
      check_int "state from checkpoint" 41
        (int_result "get" (Cluster.invoke cl ~from:0 cap ~op:"get" []));
      check_bool "active again" true (Cluster.is_active cl cap))

let test_reincarnation_handler_runs () =
  let witnessed = ref 0 in
  let tm =
    Typemgr.make_exn ~name:"phoenix"
      ~reincarnate:(fun ctx ->
        incr witnessed;
        ctx.compute (Time.ms 1))
      [
        Typemgr.operation "checkpoint" (fun ctx args ->
            let* () = no_args args in
            let* () = ctx.checkpoint () in
            reply_unit);
        Typemgr.operation "crash" (fun ctx args ->
            let* () = no_args args in
            ctx.crash ();
            reply_unit);
        Typemgr.operation "ping" ~mutates:false (fun _ args ->
            let* () = no_args args in
            reply_unit);
      ]
  in
  with_cluster ~types:[ tm ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"phoenix" Value.Unit)
      in
      ignore (ok_or_fail "ckpt" (Cluster.invoke cl ~from:0 cap ~op:"checkpoint" []));
      check_int "not yet" 0 !witnessed;
      ignore (Cluster.invoke cl ~from:0 cap ~op:"crash" [] : Api.invoke_result);
      ignore (ok_or_fail "ping" (Cluster.invoke cl ~from:0 cap ~op:"ping" []));
      check_int "handler ran exactly once" 1 !witnessed)

let test_node_crash_and_restart () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      ignore (ok_or_fail "add" (Cluster.invoke cl ~from:1 cap ~op:"add" [ Value.Int 9 ]));
      ignore (ok_or_fail "ckpt" (Cluster.invoke cl ~from:1 cap ~op:"checkpoint" []));
      Cluster.crash_node cl 0;
      check_bool "node down" false (Cluster.node_up cl 0);
      (* Node 1 cached a hint to node 0 from the earlier invocations, so
         the request vanishes into the dead node and times out. *)
      expect_error "unreachable" Error.Timeout
        (Cluster.invoke cl ~from:1 ~timeout:(Time.ms 100) cap ~op:"get" []);
      Cluster.restart_node cl 0;
      check_int "recovered from disk" 9
        (int_result "get" (Cluster.invoke cl ~from:1 cap ~op:"get" []));
      check_bool "reincarnated on node 0" true
        (Cluster.where_is cl cap = Some 0))

let test_remote_checksite_survives_home_crash () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      ignore
        (ok_or_fail "set checksite"
           (Cluster.invoke cl ~from:0 cap ~op:"set_reliability_remote"
              [ Value.Int 2 ]));
      ignore (ok_or_fail "add" (Cluster.invoke cl ~from:0 cap ~op:"add" [ Value.Int 5 ]));
      ignore (ok_or_fail "ckpt" (Cluster.invoke cl ~from:0 cap ~op:"checkpoint" []));
      check_bool "snapshot on node 2" true
        (List.mem 2 (Cluster.checkpoint_sites cl cap));
      (* Node 0 dies and never comes back. *)
      Cluster.crash_node cl 0;
      (* The object reincarnates at its checksite, node 2. *)
      check_int "value survives" 5
        (int_result "get" (Cluster.invoke cl ~from:1 cap ~op:"get" []));
      check_bool "now living at node 2" true
        (Cluster.where_is cl cap = Some 2))

let test_mirrored_checkpoint () =
  with_cluster ~n:4 (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      ignore
        (ok_or_fail "mirror"
           (Cluster.invoke cl ~from:0 cap ~op:"set_reliability_mirrored"
              [ Value.List [ Value.Int 1; Value.Int 2 ] ]));
      ignore (ok_or_fail "add" (Cluster.invoke cl ~from:0 cap ~op:"add" [ Value.Int 7 ]));
      ignore (ok_or_fail "ckpt" (Cluster.invoke cl ~from:0 cap ~op:"checkpoint" []));
      let sites = List.sort Int.compare (Cluster.checkpoint_sites cl cap) in
      Alcotest.(check (list int)) "mirrored at 1 and 2" [ 1; 2 ] sites;
      (* Either mirror can reincarnate the object. *)
      Cluster.crash_node cl 0;
      Cluster.crash_node cl 1;
      check_int "survives two failures" 7
        (int_result "get" (Cluster.invoke cl ~from:3 cap ~op:"get" [])))

let test_invocation_timeout () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      (* A 100ms CPU burn invoked with a 10ms budget times out. *)
      expect_error "timeout" Error.Timeout
        (Cluster.invoke cl ~from:1 ~timeout:(Time.ms 10) cap ~op:"burn"
           [ Value.Int 100_000 ]);
      (* A generous budget succeeds. *)
      ignore
        (ok_or_fail "slow but fine"
           (Cluster.invoke cl ~from:1 ~timeout:(Time.s 5) cap ~op:"burn"
              [ Value.Int 100_000 ])))

let test_timeout_during_node_outage () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      ignore (ok_or_fail "add" (Cluster.invoke cl ~from:1 cap ~op:"add" [ Value.Int 5 ]));
      ignore (ok_or_fail "save" (Cluster.invoke cl ~from:1 cap ~op:"checkpoint" []));
      (* Move the object's checkpoint home truth: it lives on node 0
         with a local snapshot; node 1 has a hint to node 0. *)
      Cluster.crash_node cl 0;
      (* The hint still points at node 0: the request vanishes and the
         timeout fires — and the timeout invalidates the stale hint. *)
      expect_error "timed out against dead node" Error.Timeout
        (Cluster.invoke cl ~from:1 ~timeout:(Time.ms 50) cap ~op:"get" []);
      (* After the node returns, the very next invocation re-locates
         (no stale-hint black hole) and reincarnates the object. *)
      Cluster.restart_node cl 0;
      check_int "fresh locate finds it" 5
        (int_result "get" (Cluster.invoke cl ~from:1 cap ~op:"get" [])))

(* ------------------------------------------------------------------ *)
(* Mobility *)

let test_external_move () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      ignore (ok_or_fail "warm value" (Cluster.invoke cl ~from:0 cap ~op:"add" [ Value.Int 4 ]));
      ignore (ok_or_fail "move" (Cluster.move cl cap ~to_node:2));
      check_bool "moved" true (Cluster.where_is cl cap = Some 2);
      (* State travelled with the object. *)
      check_int "state intact" 4
        (int_result "get" (Cluster.invoke cl ~from:2 cap ~op:"get" []));
      (* Invocation through the old location still works (forwarding),
         and repairs the caller's hint. *)
      check_int "reachable from elsewhere" 5
        (int_result "incr" (Cluster.invoke cl ~from:1 cap ~op:"incr" [])))

let test_self_move () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      let r = Cluster.invoke cl ~from:0 cap ~op:"move_self" [ Value.Int 1 ] in
      check_int "handler finished on target node" 1 (int_result "move" r);
      check_bool "object now on node 1" true (Cluster.where_is cl cap = Some 1))

let test_move_to_full_node_refused () =
  (* Target node has almost no memory: the move must be refused and the
     object must keep running at the source. *)
  let tiny =
    {
      (Eden_hw.Machine.default_config ~name:"tiny") with
      Eden_hw.Machine.memory_bytes = 2_000;
    }
  in
  let configs =
    [
      Eden_hw.Machine.default_config ~name:"n0";
      tiny;
    ]
  in
  let cl = Cluster.create ~configs () in
  Cluster.register_type cl counter_type;
  let outcome = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        let cap = new_counter cl ~node:0 1 in
        let r = Cluster.move cl cap ~to_node:1 in
        outcome := Some (r, Cluster.where_is cl cap))
  in
  Cluster.run cl;
  match !outcome with
  | Some (Error Error.Out_of_memory, Some 0) -> ()
  | Some (Error e, w) ->
    Alcotest.failf "unexpected %s at %s" (Error.to_string e)
      (match w with Some n -> string_of_int n | None -> "nowhere")
  | Some (Ok (), _) -> Alcotest.fail "move should have failed"
  | None -> Alcotest.fail "driver did not finish"

(* ------------------------------------------------------------------ *)
(* Freeze and replication *)

let test_freeze_blocks_mutation () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 10 in
      ignore (ok_or_fail "freeze" (Cluster.invoke cl ~from:0 cap ~op:"freeze_self" []));
      expect_error "mutating op refused" Error.Frozen_immutable
        (Cluster.invoke cl ~from:0 cap ~op:"incr" []);
      check_int "read still fine" 10
        (int_result "get" (Cluster.invoke cl ~from:0 cap ~op:"get" [])))

let test_replicate_requires_frozen () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      match Cluster.replicate cl cap ~to_node:1 with
      | Error (Error.Move_refused _) -> ()
      | Ok () -> Alcotest.fail "replicated a mutable object"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

let test_replica_serves_locally () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 123 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      ignore (ok_or_fail "replicate" (Cluster.replicate cl cap ~to_node:2));
      Alcotest.(check (list int)) "replica installed" [ 2 ]
        (Cluster.replica_sites cl cap);
      let before = Cluster.stats_remote_invocations cl in
      check_int "replica answers" 123
        (int_result "get" (Cluster.invoke cl ~from:2 cap ~op:"get" []));
      check_int "no network used" before
        (Cluster.stats_remote_invocations cl))

(* ------------------------------------------------------------------ *)
(* Async invocation *)

let test_async_overlap () =
  with_cluster (fun cl ->
      let a = new_counter cl ~node:1 0 in
      let b = new_counter cl ~node:2 0 in
      let t0 = Engine.now (Cluster.engine cl) in
      let pa =
        Cluster.invoke_async cl ~from:0 a ~op:"burn" [ Value.Int 50_000 ]
      in
      let pb =
        Cluster.invoke_async cl ~from:0 b ~op:"burn" [ Value.Int 50_000 ]
      in
      (match (Promise.await pa, Promise.await pb) with
      | Some (Ok _), Some (Ok _) -> ()
      | _ -> Alcotest.fail "async burns failed");
      let elapsed =
        Time.to_ns (Time.diff (Engine.now (Cluster.engine cl)) t0)
      in
      (* Two 50ms burns on different nodes overlap: < 95ms total. *)
      check_bool "overlapped" true (elapsed < 95_000_000))

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_cluster_deterministic () =
  let fingerprint () =
    with_cluster ~seed:77L (fun cl ->
        let caps =
          List.init 6 (fun i -> new_counter cl ~node:(i mod 3) 0)
        in
        List.iteri
          (fun i cap ->
            ignore
              (Cluster.invoke cl ~from:((i + 1) mod 3) cap ~op:"add"
                 [ Value.Int i ]))
          caps;
        ( Time.to_ns (Engine.now (Cluster.engine cl)),
          Cluster.stats_invocations cl,
          Cluster.stats_remote_invocations cl ))
  in
  check_bool "identical runs" true (fingerprint () = fingerprint ())

(* ------------------------------------------------------------------ *)
(* Allocation gate *)

(* The simulator's own cost on the invocation fast path: minor words
   allocated per remote [work] call, over 2,000 calls from node 0 to an
   object on node 1, after a first call has located it.  Allocation is
   deterministic for a given build, so the figure is exact and the
   bound sits about 15% above it. *)
let words_per_invocation_bound = 605.0

let test_words_per_remote_invocation () =
  let tm = Eden_workload.Synthetic.worker_type in
  let calls = 2_000 in
  let words =
    with_cluster ~n:2 ~types:[ tm ] (fun cl ->
        let cap =
          ok_or_fail "create"
            (Cluster.create_object cl ~node:1 ~type_name:(Typemgr.name tm)
               Value.Unit)
        in
        let payload = String.make 256 'x' in
        let call () =
          match
            Cluster.invoke cl ~from:0 cap ~op:"work"
              [ Value.Str payload; Value.Int 50 ]
          with
          | Ok [ Value.Str p ] when String.equal p payload -> ()
          | Ok _ -> Alcotest.fail "work: unexpected reply"
          | Error e -> Alcotest.failf "work: %s" (Error.to_string e)
        in
        call ();
        let before = Gc.minor_words () in
        for _ = 1 to calls do
          call ()
        done;
        (Gc.minor_words () -. before) /. float_of_int calls)
  in
  Printf.printf "minor words per remote invocation: %.1f\n" words;
  if words > words_per_invocation_bound then
    Alcotest.failf "%.1f minor words per remote invocation, bound %.0f" words
      words_per_invocation_bound

let () =
  Alcotest.run "eden_kernel"
    [
      ( "basics",
        [
          Alcotest.test_case "create + invoke" `Quick
            test_create_and_invoke_local;
          Alcotest.test_case "unknown type" `Quick test_unknown_type;
          Alcotest.test_case "no such operation" `Quick test_no_such_operation;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
          Alcotest.test_case "bogus name" `Quick test_invoke_bogus_name;
        ] );
      ( "rights",
        [
          Alcotest.test_case "restriction" `Quick test_rights_restriction;
          Alcotest.test_case "aux rights" `Quick test_aux_rights_required;
          Alcotest.test_case "move right" `Quick test_move_requires_right;
        ] );
      ( "remote",
        [
          Alcotest.test_case "remote invoke" `Quick test_remote_invoke;
          Alcotest.test_case "latency ordering" `Quick
            test_remote_latency_exceeds_local;
          Alcotest.test_case "capability passing" `Quick
            test_capability_passing;
          Alcotest.test_case "remote create" `Quick test_remote_create;
        ] );
      ( "classes",
        [
          Alcotest.test_case "limit serialises" `Quick
            test_class_limit_serialises;
          Alcotest.test_case "classes overlap" `Quick
            test_distinct_classes_concurrent;
          Alcotest.test_case "ports + behaviours" `Quick
            test_ports_and_behaviours;
          Alcotest.test_case "semaphore prevents lost updates" `Quick
            test_semaphore_no_lost_updates;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "crash loses unsaved object" `Quick
            test_crash_without_checkpoint_loses_object;
          Alcotest.test_case "checkpoint + crash + reincarnate" `Quick
            test_checkpoint_then_crash_reincarnates;
          Alcotest.test_case "reincarnation handler" `Quick
            test_reincarnation_handler_runs;
          Alcotest.test_case "node crash + restart" `Quick
            test_node_crash_and_restart;
          Alcotest.test_case "remote checksite" `Quick
            test_remote_checksite_survives_home_crash;
          Alcotest.test_case "mirrored checkpoints" `Quick
            test_mirrored_checkpoint;
          Alcotest.test_case "invocation timeout" `Quick
            test_invocation_timeout;
          Alcotest.test_case "timeout during outage" `Quick
            test_timeout_during_node_outage;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "external move" `Quick test_external_move;
          Alcotest.test_case "self move" `Quick test_self_move;
          Alcotest.test_case "move to full node" `Quick
            test_move_to_full_node_refused;
        ] );
      ( "replication",
        [
          Alcotest.test_case "freeze blocks mutation" `Quick
            test_freeze_blocks_mutation;
          Alcotest.test_case "replicate requires frozen" `Quick
            test_replicate_requires_frozen;
          Alcotest.test_case "replica serves locally" `Quick
            test_replica_serves_locally;
        ] );
      ( "async",
        [ Alcotest.test_case "overlap" `Quick test_async_overlap ] );
      ( "determinism",
        [ Alcotest.test_case "identical runs" `Quick test_cluster_deterministic ]
      );
      ( "allocation",
        [
          Alcotest.test_case "words per remote invocation" `Quick
            test_words_per_remote_invocation;
        ] );
    ]
