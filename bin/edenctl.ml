(* edenctl — drive Eden scenarios from the command line.

     edenctl demo      [--nodes N] [--seed S] [--trace] [--metrics-out FILE]
     edenctl mail      [--nodes N] [--users K] [--messages M] [--trace] [--metrics-out FILE]
     edenctl synth     [--nodes N] [--locality F] [--requests R] [--fault-plan FILE]
                       [--replica-cache] [--coalesce] [--ckpt-delta] [--ckpt-async]
                       [--trace] [--metrics-out FILE]
     edenctl efs       [--nodes N] [--txns T] [--optimistic] [--trace] [--metrics-out FILE]
     edenctl heartbeat [--nodes N] [--kill I] [--trace] [--metrics-out FILE]
     edenctl run       [--nodes N] [--seed S] [--fault-plan FILE] [--requests R]
                       [--replica-cache] [--coalesce] [--ckpt-delta] [--ckpt-async]
                       [--clone] [--hedge] [--directory] [--spares K] [--out DIR]
                       (chaos workload, every observer armed, one artifact bundle)
     edenctl reconfig  [--nodes N] [--spares K] [--seed S] [--requests R]
                       [--fault-plan FILE] [--trace] [--metrics-out FILE]
                       (join + drain + leave while a counter stream runs)
     edenctl stats     [--nodes N] [--requests R]   (metrics tables after a synth run)
     edenctl metrics-check FILE                     (validate an exported snapshot)
     edenctl edit      [--nodes N]      (interactive object editor)
     edenctl info *)

open Cmdliner
open Eden_util
open Eden_sim
open Eden_kernel

(* ------------------------------------------------------------------ *)
(* Common options *)

let nodes_t =
  Arg.(value & opt int 5 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")

let trace_t =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print the causal timeline (merged node journals) after the run.")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the final metrics snapshot (counters, gauges and \
           histograms) to $(docv) as JSON.")

let fault_plan_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "fault-plan" ] ~docv:"FILE"
        ~doc:
          "Arm the fault plan in $(docv) (one 'at TIME ACTION' per \
           line; see lib/fault/plan.mli for the grammar).")

let replica_cache_t =
  Arg.(
    value & flag
    & info [ "replica-cache" ]
        ~doc:
          "Enable the frozen-replica cache: nodes cache the \
           representation of remote frozen objects on first use and \
           serve later invocations locally.")

let directory_t =
  Arg.(
    value & flag
    & info [ "directory" ]
        ~doc:
          "Enable the sharded locate directory: a consistent-hash \
           ring assigns every object name a registry shard, and a \
           requester with no hint asks the shard with one unicast \
           instead of broadcasting a locate.  Misses, dead shards \
           and stale answers fall back to the broadcast path.")

let coalesce_t =
  Arg.(
    value & flag
    & info [ "coalesce" ]
        ~doc:
          "Enable unicast message coalescing on the kernel transport: \
           small same-destination messages batch into one wire \
           transfer under size/count/delay budgets.")

let ckpt_delta_t =
  Arg.(
    value & flag
    & info [ "ckpt-delta" ]
        ~doc:
          "Enable delta checkpoints: a checkpoint ships only the \
           representation chunks that changed since the version each \
           checksite last acknowledged, falling back to a full write \
           on version mismatch.")

let ckpt_async_t =
  Arg.(
    value & flag
    & info [ "ckpt-async" ]
        ~doc:
          "Checkpoint through the asynchronous pipeline: objects that \
           persist their updates use $(b,checkpoint_async), so the \
           writes overlap the request stream instead of blocking it.")

let clone_t =
  Arg.(
    value & flag
    & info [ "clone" ]
        ~doc:
          "Speculatively clone read-only invocations on frozen objects \
           to every known replica site; the first response wins and \
           the losing sites receive an urgent cancel.")

let hedge_t =
  Arg.(
    value & flag
    & info [ "hedge" ]
        ~doc:
          "Hedge straggling requests: when a reply takes longer than \
           the windowed latency quantile, re-send the same request \
           once (the server suppresses the duplicate).")

let spares_t =
  Arg.(
    value & opt int 0
    & info [ "spares" ] ~docv:"K"
        ~doc:
          "Rack $(docv) spare nodes after the configured ones: powered \
           and reachable but outside the boot membership, so a fault \
           plan's 'join' action can admit them mid-run.")

let cluster_options ?(clone = false) ?(hedge = false) ?(directory = false)
    ~replica_cache ~ckpt_delta () =
  {
    Cluster.default_options with
    Cluster.use_replica_cache = replica_cache;
    Cluster.use_ckpt_delta = ckpt_delta;
    Cluster.speculate =
      { Api.no_speculation with Api.sp_clone = clone; sp_hedge = hedge };
    Cluster.use_directory = directory;
  }

let cluster_coalesce coalesce =
  if coalesce then Some Eden_net.Internet.default_coalesce else None

let read_plan file =
  match Eden_fault.Plan.of_file file with
  | Ok p -> p
  | Error msg ->
    Printf.eprintf "fault plan %s: %s\n" file msg;
    exit 1

(* Parse a plan file and check it against the rack. *)
let load_plan file ~nodes ~segments =
  let plan = read_plan file in
  match Eden_fault.Plan.validate plan ~nodes ~segments with
  | Ok () -> plan
  | Error msg ->
    Printf.eprintf "fault plan: %s\n" msg;
    exit 1

(* Every file edenctl writes goes through [Snapshot.write_string],
   which creates missing parent directories. *)
let write_file ~path contents =
  try Eden_obs.Snapshot.write_string ~path contents
  with Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" path msg;
    exit 1

let write_metrics cl = function
  | None -> ()
  | Some path ->
    write_file ~path
      (Eden_obs.Snapshot.to_string (Cluster.metrics_snapshot cl) ^ "\n");
    Printf.printf "metrics snapshot written to %s\n" path

let print_timeline cl enabled =
  if enabled then begin
    print_endline "--- causal timeline ---";
    print_string (Eden_obs.Timeline.to_text (Cluster.timeline cl))
  end

let summary cl =
  Printf.printf
    "\nsimulated time %s; %d invocations (%d remote); %d events\n"
    (Time.to_string (Engine.now (Cluster.engine cl)))
    (Cluster.stats_invocations cl)
    (Cluster.stats_remote_invocations cl)
    (Engine.events_processed (Cluster.engine cl))

(* ------------------------------------------------------------------ *)
(* demo: counters shared across the cluster *)

let counter_type =
  let open Api in
  Typemgr.make_exn ~name:"ctl_counter"
    [
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
    ]

let run_demo nodes seed trace metrics_out =
  let cl = Cluster.default ~seed:(Int64.of_int seed) ~n_nodes:nodes () in
  Cluster.register_type cl counter_type;
  let _ =
    Cluster.in_process cl (fun () ->
        match
          Cluster.create_object cl ~node:0 ~type_name:"ctl_counter"
            (Value.Int 0)
        with
        | Error e -> Printf.printf "create failed: %s\n" (Error.to_string e)
        | Ok cap ->
          for from = 0 to nodes - 1 do
            match Cluster.invoke cl ~from cap ~op:"incr" [] with
            | Ok [ Value.Int n ] ->
              Printf.printf "node %d incremented the shared counter to %d\n"
                from n
            | Ok _ | Error _ -> Printf.printf "node %d: invocation failed\n" from
          done)
  in
  Cluster.run cl;
  print_timeline cl trace;
  write_metrics cl metrics_out;
  summary cl

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Shared counter incremented from every node.")
    Term.(const run_demo $ nodes_t $ seed_t $ trace_t $ metrics_out_t)

(* ------------------------------------------------------------------ *)
(* mail *)

let run_mail nodes seed users messages trace metrics_out =
  let cl = Cluster.default ~seed:(Int64.of_int seed) ~n_nodes:nodes () in
  Eden_workload.Mail.register_types cl;
  let setup = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        match
          Eden_workload.Mail.build cl ~registry_node:0 ~users_per_node:users
        with
        | Ok s -> setup := Some s
        | Error e -> Printf.printf "build failed: %s\n" (Error.to_string e))
  in
  Cluster.run cl;
  (match !setup with
  | None -> ()
  | Some s ->
    let r =
      Eden_workload.Mail.run cl s ~messages_per_user:messages
        ~think_mean_s:0.02
    in
    Printf.printf "sent=%d failures=%d delivered=%d\nsend latency: %s\n"
      r.Eden_workload.Mail.sent r.Eden_workload.Mail.send_failures
      r.Eden_workload.Mail.fetched
      (Format.asprintf "%a" Stats.pp_summary r.Eden_workload.Mail.send_latency));
  print_timeline cl trace;
  write_metrics cl metrics_out;
  summary cl

let mail_cmd =
  let users_t =
    Arg.(value & opt int 2 & info [ "users" ] ~docv:"K" ~doc:"Users per node.")
  in
  let messages_t =
    Arg.(
      value & opt int 8
      & info [ "messages" ] ~docv:"M" ~doc:"Messages per user.")
  in
  Cmd.v
    (Cmd.info "mail" ~doc:"Multi-user mail workload.")
    Term.(
      const run_mail $ nodes_t $ seed_t $ users_t $ messages_t $ trace_t
      $ metrics_out_t)

(* ------------------------------------------------------------------ *)
(* synth *)

let run_synth nodes seed locality requests fault_plan replica_cache coalesce
    ckpt_delta _ckpt_async directory trace metrics_out =
  (* Synth itself runs checkpoint-free, so --ckpt-async has nothing to
     route through the pipeline here; the flag is accepted for a
     uniform CLI and --ckpt-delta still configures the protocol for
     any checkpoint traffic (e.g. a fault plan forcing recovery). *)
  let cl =
    Cluster.default ~seed:(Int64.of_int seed)
      ~options:(cluster_options ~directory ~replica_cache ~ckpt_delta ())
      ?coalesce:(cluster_coalesce coalesce) ~n_nodes:nodes ()
  in
  let ctl =
    Option.map
      (fun file ->
        Eden_fault.Controller.arm cl (load_plan file ~nodes ~segments:1))
      fault_plan
  in
  let spec =
    {
      Eden_workload.Synthetic.default_spec with
      Eden_workload.Synthetic.locality;
      requests_per_user = requests;
      (* Under a fault plan the users need a recovery policy, or a
         crashed target strands them waiting for a reply forever. *)
      timeout = (if ctl = None then None else Some (Time.ms 300));
      retry = (if ctl = None then Api.no_retry else Api.default_retry);
    }
  in
  (* Synth arms the plan at t=0, so its setup phase runs under the
     plan too; a schedule that kills a node while the population is
     still being created aborts the workload. *)
  let r =
    try Eden_workload.Synthetic.run_eden cl spec
    with Invalid_argument msg ->
      Printf.eprintf
        "synth failed under the fault plan (%s); delay the first fault \
         past workload setup\n"
        msg;
      exit 1
  in
  Format.printf "%a@." Eden_workload.Synthetic.pp_results r;
  (match ctl with
  | None -> ()
  | Some ctl ->
    Printf.printf "faults injected: %d\n" (Eden_fault.Controller.injected ctl));
  print_timeline cl trace;
  write_metrics cl metrics_out;
  summary cl

let synth_cmd =
  let locality_t =
    Arg.(
      value & opt float 0.8
      & info [ "locality" ] ~docv:"F" ~doc:"Fraction of local requests.")
  in
  let requests_t =
    Arg.(
      value & opt int 25
      & info [ "requests" ] ~docv:"R" ~doc:"Requests per user.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthetic invocation workload.")
    Term.(
      const run_synth $ nodes_t $ seed_t $ locality_t $ requests_t
      $ fault_plan_t $ replica_cache_t $ coalesce_t $ ckpt_delta_t
      $ ckpt_async_t $ directory_t $ trace_t $ metrics_out_t)

(* ------------------------------------------------------------------ *)
(* efs *)

let run_efs nodes seed txns optimistic trace metrics_out =
  let cl = Cluster.default ~seed:(Int64.of_int seed) ~n_nodes:nodes () in
  Eden_efs.Schema.register cl;
  let mode = if optimistic then Eden_efs.Txn.Optimistic else Eden_efs.Txn.Locking in
  let committed = ref 0 and conflicts = ref 0 in
  let file = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        let root =
          match Eden_efs.Client.make_root cl ~node:0 with
          | Ok r -> r
          | Error e -> failwith (Error.to_string e)
        in
        match
          Eden_efs.Client.create_file cl ~from:0 ~dir:root ~name:"shared"
            ~content:(Value.Int 0) ()
        with
        | Error e -> failwith (Error.to_string e)
        | Ok f ->
          file := Some f;
          for i = 0 to txns - 1 do
            ignore
              (Cluster.in_process cl (fun () ->
                   let rec attempt k =
                     if k > 10 then ()
                     else begin
                       let t =
                         Eden_efs.Txn.begin_txn cl ~from:(i mod nodes) ~mode
                       in
                       let read =
                         match mode with
                         | Eden_efs.Txn.Locking ->
                           Eden_efs.Txn.read_for_update t f
                         | Eden_efs.Txn.Optimistic | Eden_efs.Txn.Snapshot ->
                           Eden_efs.Txn.read t f
                       in
                       match read with
                       | Ok (Value.Int v) -> (
                         ignore
                           (Eden_efs.Txn.write t f (Value.Int (v + 1)));
                         match Eden_efs.Txn.commit t with
                         | Eden_efs.Txn.Committed -> incr committed
                         | Eden_efs.Txn.Conflict | Eden_efs.Txn.Failed _ ->
                           incr conflicts;
                           attempt (k + 1))
                       | Ok _ | Error _ ->
                         Eden_efs.Txn.abort t;
                         attempt (k + 1)
                     end
                   in
                   attempt 0))
          done)
  in
  Cluster.run cl;
  let final = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        match !file with
        | Some f -> final := Some (Eden_efs.Client.read_file cl ~from:0 f)
        | None -> ())
  in
  Cluster.run cl;
  Printf.printf "%s: committed=%d conflicts=%d final=%s\n"
    (match mode with
    | Eden_efs.Txn.Locking -> "2PL"
    | Eden_efs.Txn.Optimistic -> "optimistic"
    | Eden_efs.Txn.Snapshot -> "snapshot")
    !committed !conflicts
    (match !final with
    | Some (Ok (Value.Int n)) -> string_of_int n
    | _ -> "?");
  print_timeline cl trace;
  write_metrics cl metrics_out;
  summary cl

let efs_cmd =
  let txns_t =
    Arg.(
      value & opt int 10
      & info [ "txns" ] ~docv:"T" ~doc:"Concurrent transactions.")
  in
  let optimistic_t =
    Arg.(
      value & flag
      & info [ "optimistic" ] ~doc:"Optimistic concurrency control (default 2PL).")
  in
  Cmd.v
    (Cmd.info "efs" ~doc:"EFS transaction workload on one shared file.")
    Term.(
      const run_efs $ nodes_t $ seed_t $ txns_t $ optimistic_t $ trace_t
      $ metrics_out_t)

(* ------------------------------------------------------------------ *)
(* heartbeat: poll the node objects *)

let run_heartbeat nodes seed kill trace metrics_out =
  let cl = Cluster.default ~seed:(Int64.of_int seed) ~n_nodes:nodes () in
  (match kill with
  | Some victim when victim >= 0 && victim < nodes ->
    Engine.schedule_after (Cluster.engine cl) (Time.ms 400) (fun () ->
        Cluster.crash_node cl victim)
  | Some _ | None -> ());
  let _ =
    Cluster.in_process cl (fun () ->
        for round = 1 to 3 do
          Engine.delay (Time.ms 300);
          Printf.printf "round %d:" round;
          for i = 0 to nodes - 1 do
            let status =
              match
                Cluster.invoke cl ~from:0 ~timeout:(Time.ms 150)
                  (Cluster.node_object cl i) ~op:"info" []
              with
              | Ok [ Value.Int gdps; _; Value.Int avail; Value.Int active ] ->
                Printf.sprintf "UP gdps=%d free=%dK objs=%d" gdps
                  (avail / 1000) active
              | Ok _ -> "odd reply"
              | Error e -> "DOWN (" ^ Error.to_string e ^ ")"
            in
            Printf.printf "  node%d: %s" i status
          done;
          print_newline ()
        done)
  in
  Cluster.run cl;
  print_timeline cl trace;
  write_metrics cl metrics_out;
  summary cl

let heartbeat_cmd =
  let kill_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill" ] ~docv:"I" ~doc:"Crash node $(docv) mid-run.")
  in
  Cmd.v
    (Cmd.info "heartbeat" ~doc:"Poll every node object; detect failures.")
    Term.(
      const run_heartbeat $ nodes_t $ seed_t $ kill_t $ trace_t
      $ metrics_out_t)

(* ------------------------------------------------------------------ *)
(* run: the chaos workload (mirrored counters under a deterministic
   fault plan, random from --seed unless --fault-plan is given) with
   every observer armed; prints the run summary and writes the whole
   artifact bundle (Eden_fault.Chaos.files) under --out.  Same flags,
   same bundle, byte for byte. *)

let run_chaos nodes seed fault_plan requests replica_cache coalesce ckpt_delta
    ckpt_async clone hedge directory spares out =
  let config =
    {
      Eden_fault.Chaos.nodes;
      spares;
      seed;
      requests;
      plan = Option.map read_plan fault_plan;
      options =
        cluster_options ~clone ~hedge ~directory ~replica_cache ~ckpt_delta ();
      coalesce = cluster_coalesce coalesce;
      ckpt_async;
      (* A frozen, replicated object gives speculation something to
         fan out on, and the replica cache something to cache. *)
      frozen_reads = clone || hedge || replica_cache;
    }
  in
  let b =
    try Eden_fault.Chaos.run config
    with Invalid_argument msg ->
      Printf.eprintf "run: %s\n" msg;
      exit 1
  in
  let files = Eden_fault.Chaos.files b in
  print_string (List.assoc "summary.txt" files);
  (match out with
  | None -> ()
  | Some dir ->
    List.iter
      (fun (name, contents) ->
        write_file ~path:(Filename.concat dir name) contents)
      files;
    Printf.printf "bundle written to %s (%d files)\n" dir (List.length files));
  if b.Eden_fault.Chaos.violations <> [] then exit 1

let run_cmd =
  let requests_t =
    Arg.(
      value & opt int 220
      & info [ "requests" ] ~docv:"R"
          ~doc:"Requests in the stream (one every 10ms of virtual time).")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write the artifact bundle under $(docv), creating it if \
             missing: summary, plan, metrics snapshot, causal timeline \
             (Chrome JSON and text), latency profile (text, JSON, folded \
             stacks, Chrome overlay), health report and JSON, hot-object \
             tables and the invariant verdicts.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the chaos workload with the health plane, critical-path \
          profiling and the trace checker armed; exit non-zero on any \
          invariant violation.")
    Term.(
      const run_chaos $ nodes_t $ seed_t $ fault_plan_t $ requests_t
      $ replica_cache_t $ coalesce_t $ ckpt_delta_t $ ckpt_async_t
      $ clone_t $ hedge_t $ directory_t $ spares_t $ out_t)

(* ------------------------------------------------------------------ *)
(* reconfig: online membership change under load.  A paced counter
   stream runs while a spare joins and a member is drained and
   retired; the run reports what the epoch machinery did and the
   request stream's availability through it.  Driven by the virtual
   clock and the seed, so same-seed --metrics-out files are
   byte-identical. *)

let sum_node_counter cl name =
  let snap = Cluster.metrics_snapshot cl in
  List.fold_left
    (fun acc i ->
      match
        Eden_obs.Snapshot.find snap
          ~labels:[ ("node", string_of_int i) ]
          name
      with
      | Some (Eden_obs.Metrics.Counter c) -> acc + c
      | _ -> acc)
    0
    (List.init (Cluster.node_count cl) Fun.id)

let run_reconfig nodes spares seed requests fault_plan trace metrics_out =
  if nodes < 2 then begin
    Printf.eprintf "reconfig needs --nodes >= 2\n";
    exit 1
  end;
  if spares < 1 && fault_plan = None then begin
    Printf.eprintf
      "reconfig needs --spares >= 1 (the default plan joins a spare); \
       give --fault-plan to script something else\n";
    exit 1
  end;
  (* The locate directory is always on here: the epoch-stamped ring it
     resolves through is the machinery under test. *)
  let cl =
    Cluster.default ~seed:(Int64.of_int seed)
      ~options:
        (cluster_options ~directory:true ~replica_cache:false
           ~ckpt_delta:true ())
      ~spares ~n_nodes:nodes ()
  in
  Cluster.register_type cl counter_type;
  let horizon = Time.ms (10 * requests) in
  let plan =
    match fault_plan with
    | Some file -> load_plan file ~nodes:(nodes + spares) ~segments:1
    | None ->
      (* Join the first spare a third of the way in, retire node 1 at
         two thirds: both membership steps land mid-stream. *)
      Eden_fault.Plan.make
        [
          {
            Eden_fault.Plan.at = Time.divide horizon 3;
            action = Eden_fault.Plan.Join_node nodes;
          };
          {
            Eden_fault.Plan.at = Time.divide (Time.scale horizon 2) 3;
            action = Eden_fault.Plan.Decommission_node 1;
          };
        ]
  in
  print_string "--- reconfiguration plan ---\n";
  print_string (Eden_fault.Plan.to_string plan);
  let caps = ref [||] in
  let _ =
    Cluster.in_process cl (fun () ->
        caps :=
          Array.init nodes (fun i ->
              match
                Cluster.create_object cl ~node:i ~type_name:"ctl_counter"
                  (Value.Int 0)
              with
              | Ok c -> c
              | Error e -> failwith ("create: " ^ Error.to_string e)))
  in
  Cluster.run cl;
  let ctl = Eden_fault.Controller.arm ~seed:(Int64.of_int seed) cl plan in
  let ok = ref 0 and failed = ref 0 in
  let _ =
    Cluster.in_process cl (fun () ->
        for r = 0 to requests - 1 do
          Engine.delay (Time.ms 10);
          match
            Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
              ~retry:Api.default_retry
              (!caps).(r mod nodes)
              ~op:"incr" []
          with
          | Ok _ -> incr ok
          | Error _ -> incr failed
        done)
  in
  Cluster.run cl;
  let attempts = !ok + !failed in
  Printf.printf
    "reconfig: %d/%d invocations completed (%.1f%% available), %d faults \
     injected\n"
    !ok attempts
    (100.0 *. Float.of_int !ok /. Float.of_int (max 1 attempts))
    (Eden_fault.Controller.injected ctl);
  Printf.printf "epoch %d; members [%s]; drain moves %d; epoch bumps %d\n"
    (Cluster.epoch cl)
    (String.concat "; " (List.map string_of_int (Cluster.members cl)))
    (sum_node_counter cl "eden.drain.moves")
    (sum_node_counter cl "eden.epoch.bumps");
  Array.iteri
    (fun i cap ->
      match Cluster.where_is cl cap with
      | Some home when Cluster.is_member cl home -> ()
      | Some home ->
        Printf.eprintf "counter %d homed on non-member %d\n" i home;
        exit 1
      | None ->
        Printf.eprintf "counter %d lost by the reconfiguration\n" i;
        exit 1)
    !caps;
  print_endline "census: every object homed exactly once on a member";
  print_timeline cl trace;
  write_metrics cl metrics_out;
  summary cl

let reconfig_cmd =
  let requests_t =
    Arg.(
      value & opt int 180
      & info [ "requests" ] ~docv:"R"
          ~doc:"Requests in the stream (one every 10ms of virtual time).")
  in
  let spares_default_t =
    Arg.(
      value & opt int 1
      & info [ "spares" ] ~docv:"K"
          ~doc:
            "Spare nodes racked beyond the boot membership, available \
             for the plan's 'join' actions.")
  in
  Cmd.v
    (Cmd.info "reconfig"
       ~doc:
         "Join a spare and decommission a member while a counter \
          stream runs: online membership change over the epoch-stamped \
          directory ring (plan overridable with --fault-plan).")
    Term.(
      const run_reconfig $ nodes_t $ spares_default_t $ seed_t $ requests_t
      $ fault_plan_t $ trace_t $ metrics_out_t)

(* ------------------------------------------------------------------ *)
(* edit: the interactive object editor (the paper's editing paradigm:
   every interaction is an edit of an object's structured visual
   representation) *)

let editor_hierarchy () =
  let open Api in
  let h = Eden_typesys.Hierarchy.create () in
  Eden_typesys.Hierarchy.declare_exn h
    (Eden_typesys.Hierarchy.decl ~name:"editable"
       ~attributes:[ ("display", Value.Str "record") ]
       [
         Typemgr.operation "view" ~mutates:false (fun ctx args ->
             let* () = no_args args in
             reply [ ctx.get_repr () ]);
         Typemgr.operation "fail" (fun ctx args ->
             let* () = no_args args in
             ctx.crash ();
             reply_unit);
       ]);
  Eden_typesys.Hierarchy.declare_exn h
    (Eden_typesys.Hierarchy.decl ~name:"document" ~parent:"editable"
       ~attributes:[ ("display", Value.Str "text") ]
       [
         Typemgr.operation "append_line" (fun ctx args ->
             let* v = arg1 args in
             let* line = str_arg v in
             let* old = str_arg (ctx.get_repr ()) in
             let* () = ctx.set_repr (Value.Str (old ^ "\n" ^ line)) in
             reply_unit);
         Typemgr.operation "replace_text" (fun ctx args ->
             let* v = arg1 args in
             let* _ = str_arg v in
             let* () = ctx.set_repr v in
             reply_unit);
       ]);
  Eden_typesys.Hierarchy.declare_exn h
    (Eden_typesys.Hierarchy.decl ~name:"queue" ~parent:"editable"
       ~attributes:[ ("display", Value.Str "list") ]
       [
         Typemgr.operation "push" (fun ctx args ->
             let* v = arg1 args in
             let* items =
               Value.to_list (ctx.get_repr ())
               |> Result.map_error (fun m -> Error.Bad_arguments m)
             in
             let* () = ctx.set_repr (Value.List (items @ [ v ])) in
             reply_unit);
         Typemgr.operation "pop" (fun ctx args ->
             let* () = no_args args in
             let* items =
               Value.to_list (ctx.get_repr ())
               |> Result.map_error (fun m -> Error.Bad_arguments m)
             in
             match items with
             | [] -> user_error "queue is empty"
             | x :: rest ->
               let* () = ctx.set_repr (Value.List rest) in
               reply [ x ]);
       ]);
  h

let editor_help () =
  print_string
    "commands:\n\
    \  mk doc|queue <name>        create an object (round-robin placement)\n\
    \  ls                         list objects\n\
    \  show <name>                render the structured representation\n\
    \  append <name> <text...>    document: add a line\n\
    \  push <name> <text>         queue: enqueue\n\
    \  pop <name>                 queue: dequeue\n\
    \  move <name> <node>         migrate the object\n\
    \  checkpoint <name>          save long-term state\n\
    \  crash <name>               simulate a failure (reincarnates on use)\n\
    \  nodes                      node heartbeats\n\
    \  help | quit\n"

let run_edit nodes seed =
  let cl = Cluster.default ~seed:(Int64.of_int seed) ~n_nodes:nodes () in
  let h = editor_hierarchy () in
  (match Eden_typesys.Hierarchy.register_all h cl with
  | Ok () -> ()
  | Error e -> failwith e);
  let objects : (string, string * Capability.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let next_node = ref 0 in
  (* Run one blocking action against the cluster and drain the sim. *)
  let step f =
    let out = ref None in
    let _ = Cluster.in_process cl (fun () -> out := Some (f ())) in
    Cluster.run cl;
    !out
  in
  let find name =
    match Hashtbl.find_opt objects name with
    | Some x -> Some x
    | None ->
      Printf.printf "no object %S (try ls)\n" name;
      None
  in
  let show name =
    match find name with
    | None -> ()
    | Some (tname, cap) -> (
      match step (fun () -> Cluster.invoke cl ~from:0 cap ~op:"view" []) with
      | Some (Ok [ repr ]) ->
        print_endline
          (Eden_typesys.Display.render h ~type_name:tname ~title:name repr)
      | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
      | Some (Ok _) | None -> print_endline "unviewable")
  in
  let invoke_and_show name op args =
    match find name with
    | None -> ()
    | Some (_, cap) -> (
      match step (fun () -> Cluster.invoke cl ~from:0 cap ~op args) with
      | Some (Ok _) -> show name
      | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
      | None -> ())
  in
  editor_help ();
  let quit = ref false in
  while not !quit do
    print_string "edit> ";
    match In_channel.input_line stdin with
    | None -> quit := true
    | Some line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> ()
      | [ "quit" ] | [ "exit" ] -> quit := true
      | [ "help" ] -> editor_help ()
      | [ "ls" ] ->
        Hashtbl.iter
          (fun name (tname, cap) ->
            let where =
              match Cluster.where_is cl cap with
              | Some n -> Printf.sprintf "node %d" n
              | None -> "passive"
            in
            Printf.printf "  %-12s %-10s %s\n" name tname where)
          objects
      | [ "nodes" ] ->
        for i = 0 to nodes - 1 do
          let status =
            match
              step (fun () ->
                  Cluster.invoke cl ~from:0 ~timeout:(Time.ms 150)
                    (Cluster.node_object cl i) ~op:"ping" [])
            with
            | Some (Ok _) -> "UP"
            | Some (Error _) | None -> "DOWN"
          in
          Printf.printf "  node%d: %s\n" i status
        done
      | [ "mk"; kind; name ] when kind = "doc" || kind = "queue" ->
        if Hashtbl.mem objects name then
          Printf.printf "%S already exists\n" name
        else begin
          let tname, init =
            if kind = "doc" then ("document", Value.Str (name ^ ":"))
            else ("queue", Value.List [])
          in
          let node = !next_node mod nodes in
          incr next_node;
          match
            step (fun () ->
                Cluster.create_object cl ~node ~type_name:tname init)
          with
          | Some (Ok cap) ->
            Hashtbl.replace objects name (tname, cap);
            Printf.printf "created %s %S on node %d\n" tname name node
          | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
          | None -> ()
        end
      | [ "show"; name ] -> show name
      | "append" :: name :: rest ->
        invoke_and_show name "append_line"
          [ Value.Str (String.concat " " rest) ]
      | "push" :: name :: rest ->
        invoke_and_show name "push" [ Value.Str (String.concat " " rest) ]
      | [ "pop"; name ] -> invoke_and_show name "pop" []
      | [ "move"; name; node ] -> (
        match (find name, int_of_string_opt node) with
        | Some (_, cap), Some n when n >= 0 && n < nodes -> (
          match step (fun () -> Cluster.move cl cap ~to_node:n) with
          | Some (Ok ()) -> Printf.printf "moved %S to node %d\n" name n
          | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
          | None -> ())
        | Some _, _ -> print_endline "bad node"
        | None, _ -> ())
      | [ "checkpoint"; name ] -> (
        match find name with
        | None -> ()
        | Some (_, cap) -> (
          match step (fun () -> Cluster.checkpoint_of cl cap) with
          | Some (Ok ()) -> Printf.printf "%S checkpointed\n" name
          | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
          | None -> ()))
      | [ "crash"; name ] -> (
        match find name with
        | None -> ()
        | Some (_, cap) -> (
          match
            step (fun () -> Cluster.invoke cl ~from:0 cap ~op:"fail" [])
          with
          | Some (Error Error.Object_crashed) ->
            Printf.printf
              "%S crashed; it will reincarnate from its last checkpoint \
               on next use (if it has one)\n"
              name
          | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
          | Some (Ok _) | None -> print_endline "crash did not happen"))
      | _ -> print_endline "unrecognised (try help)")
  done;
  Printf.printf "bye: %d invocations (%d remote), %s simulated\n"
    (Cluster.stats_invocations cl)
    (Cluster.stats_remote_invocations cl)
    (Time.to_string (Engine.now (Cluster.engine cl)))

let edit_cmd =
  Cmd.v
    (Cmd.info "edit" ~doc:"Interactive object editor (the editing paradigm).")
    Term.(const run_edit $ nodes_t $ seed_t)

(* ------------------------------------------------------------------ *)
(* stats *)

let run_stats nodes seed locality requests =
  let cl = Cluster.default ~seed:(Int64.of_int seed) ~n_nodes:nodes () in
  let spec =
    {
      Eden_workload.Synthetic.default_spec with
      Eden_workload.Synthetic.locality;
      requests_per_user = requests;
    }
  in
  let r = Eden_workload.Synthetic.run_eden cl spec in
  Format.printf "%a@.@." Eden_workload.Synthetic.pp_results r;
  print_string (Eden_obs.Snapshot.pp_table (Cluster.metrics_snapshot cl))

let stats_cmd =
  let locality_t =
    Arg.(
      value & opt float 0.8
      & info [ "locality" ] ~docv:"F" ~doc:"Fraction of local requests.")
  in
  let requests_t =
    Arg.(
      value & opt int 25
      & info [ "requests" ] ~docv:"R" ~doc:"Requests per user.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a synthetic workload and print the metrics registry as \
          per-node, per-segment and cluster-wide tables.")
    Term.(const run_stats $ nodes_t $ seed_t $ locality_t $ requests_t)

(* ------------------------------------------------------------------ *)
(* metrics-check *)

(* Core instruments every cluster run must export; [make check] uses
   this to validate the smoke run's --metrics-out file. *)
let required_metrics =
  [
    ("eden.invocations", Some [ ("node", "0") ]);
    ("eden.hint_hits", Some [ ("node", "0") ]);
    ("eden.hint_misses", Some [ ("node", "0") ]);
    ("eden.invocation_latency_s", None);
    ("eden.journal.events", Some [ ("node", "0") ]);
    ("net.frames_sent", Some [ ("segment", "0") ]);
    ("net.collisions", Some [ ("segment", "0") ]);
    ("sim.events", None);
  ]

let run_metrics_check file =
  let contents = In_channel.with_open_text file In_channel.input_all in
  match Eden_obs.Snapshot.of_string contents with
  | Error e ->
    Printf.eprintf "metrics-check: %s: parse error: %s\n" file e;
    exit 1
  | Ok snap ->
    let missing =
      List.filter
        (fun (name, labels) ->
          Eden_obs.Snapshot.find snap ?labels name = None)
        required_metrics
    in
    (match missing with
    | [] ->
      Printf.printf "metrics-check: OK (%d samples, t=%s)\n"
        (List.length snap.Eden_obs.Snapshot.metrics)
        (Time.to_string snap.Eden_obs.Snapshot.at)
    | _ ->
      List.iter
        (fun (name, labels) ->
          Printf.eprintf "metrics-check: missing %s%s\n" name
            (match labels with
            | None -> ""
            | Some l ->
              "{"
              ^ String.concat ","
                  (List.map (fun (k, v) -> k ^ "=" ^ v) l)
              ^ "}"))
        missing;
      exit 1)

let metrics_check_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Snapshot JSON written by --metrics-out.")
  in
  Cmd.v
    (Cmd.info "metrics-check"
       ~doc:
         "Validate an exported metrics snapshot: parse the JSON and \
          verify the core instruments are present.")
    Term.(const run_metrics_check $ file_t)

(* ------------------------------------------------------------------ *)
(* info *)

let run_info () =
  print_endline "Eden reproduction (SOSP 1981, Lazowska et al.)";
  print_endline "";
  print_endline "libraries: eden_util eden_sim eden_net eden_hw eden_kernel";
  print_endline "           eden_typesys eden_efs eden_baseline eden_workload";
  print_endline "examples : dune exec examples/quickstart.exe (and 4 more)";
  print_endline "benches  : dune exec bench/main.exe -- --list";
  print_endline "";
  Printf.printf "default node machine: %d GDPs, %d bytes memory\n"
    (Eden_hw.Machine.default_config ~name:"x").Eden_hw.Machine.gdps
    (Eden_hw.Machine.default_config ~name:"x").Eden_hw.Machine.memory_bytes;
  let p = Eden_net.Params.default in
  Printf.printf "network: %d Mb/s Ethernet, slot %s, max frame %dB\n"
    (p.Eden_net.Params.bandwidth_bps / 1_000_000)
    (Time.to_string p.Eden_net.Params.slot)
    p.Eden_net.Params.max_frame_bytes

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Show build configuration.")
    Term.(const run_info $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "edenctl" ~version:"1.0"
             ~doc:"Drive scenarios on the Eden reproduction.")
          [
            demo_cmd;
            mail_cmd;
            synth_cmd;
            efs_cmd;
            heartbeat_cmd;
            run_cmd;
            reconfig_cmd;
            stats_cmd;
            metrics_check_cmd;
            edit_cmd;
            info_cmd;
          ]))
