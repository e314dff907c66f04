open Eden_util
open Eden_sim
open Eden_kernel
module Obs = Eden_obs

type config = {
  nodes : int;
  spares : int;
  seed : int;
  requests : int;
  plan : Plan.t option;
  options : Cluster.options;
  coalesce : Transport.coalesce option;
  ckpt_async : bool;
  frozen_reads : bool;
}

let default =
  {
    nodes = 5;
    spares = 0;
    seed = 42;
    requests = 220;
    plan = None;
    options = Cluster.default_options;
    coalesce = None;
    ckpt_async = false;
    frozen_reads = false;
  }

let horizon = Time.s 2

type bundle = {
  cluster : Cluster.t;
  plan : Plan.t;
  ok : int;
  failed : int;
  probes_ok : bool;
  injected : int;
  reads : int option list;
  timeline : Obs.Timeline.t;
  profile : Obs.Profile.t;
  violations : Obs.Check.violation list;
  dropped : int;
}

let counter_type ~async =
  let open Api in
  Typemgr.make_exn ~name:"chaos_counter"
    [
      Typemgr.operation "config" (fun ctx args ->
          (* [List sites]: mirror the checkpoint over the given nodes
             and take the first one. *)
          let* v = arg1 args in
          let* sites =
            Value.to_list v
            |> Result.map_error (fun m -> Error.Bad_arguments m)
          in
          let sites =
            List.filter_map (fun s -> Result.to_option (Value.to_int s)) sites
          in
          let* () = ctx.set_reliability (Reliability.Mirrored sites) in
          let* () = ctx.checkpoint () in
          reply_unit);
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          (* Persist every update.  A partial checkpoint (some mirror
             site down or disk-failed) still stored the copies it
             could; the update itself succeeded, so reply Ok. *)
          (match
             if async then ctx.checkpoint_async () else ctx.checkpoint ()
           with
          | Ok () | Error _ -> ());
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
    ]

let must what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Error.to_string e)

(* Two bridged segments once the cluster is big enough, so partition
   events have something to cut. *)
let segments nodes =
  if nodes >= 4 then [ nodes - (nodes / 2); nodes / 2 ] else [ nodes ]

let health_config =
  {
    Obs.Health.default_config with
    Obs.Health.hc_rules = Obs.Health.default_rules @ Obs.Health.profile_rules;
  }

let run c =
  if c.nodes < 2 then invalid_arg "Chaos.run: need at least 2 nodes";
  let segments = segments c.nodes in
  (* Spares are valid plan targets (a join admits them), so the plan
     spans the whole rack, not just the members. *)
  let rack = c.nodes + c.spares in
  let plan =
    match c.plan with
    | Some p -> p
    | None ->
      Plan.random ~seed:(Int64.of_int c.seed) ~nodes:rack
        ~segments:(List.length segments) ~horizon
  in
  (match Plan.validate plan ~nodes:rack ~segments:(List.length segments) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Chaos.run: fault plan: " ^ msg));
  let cl =
    Cluster.create ~seed:(Int64.of_int c.seed) ~segments ~spares:c.spares
      ~options:{ c.options with Cluster.use_profiling = true }
      ?coalesce:c.coalesce ~health:health_config
      ~configs:
        (List.init c.nodes (fun i ->
             Eden_hw.Machine.default_config ~name:(Printf.sprintf "node%d" i)))
      ()
  in
  Cluster.register_type cl (counter_type ~async:c.ckpt_async);
  let eng = Cluster.engine cl in
  (* Setup phase, fault-free: the plan is armed only once the objects
     exist (its times are relative to that instant). *)
  let caps = ref [||] and frozen = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        caps :=
          Array.init c.nodes (fun i ->
              let cap =
                must "create"
                  (Cluster.create_object cl ~node:i ~type_name:"chaos_counter"
                     (Value.Int 0))
              in
              ignore
                (must "config"
                   (Cluster.invoke cl ~from:i cap ~op:"config"
                      [
                        Value.List
                          [ Value.Int i; Value.Int ((i + 1) mod c.nodes) ];
                      ]));
              cap);
        if c.frozen_reads then begin
          let cap =
            must "create frozen"
              (Cluster.create_object cl ~node:(c.nodes - 1)
                 ~type_name:"chaos_counter" (Value.Int 7))
          in
          must "freeze" (Cluster.freeze cl cap);
          List.iter
            (fun n -> must "replicate" (Cluster.replicate cl cap ~to_node:n))
            (if c.nodes >= 4 then [ 1; 2 ] else []);
          frozen := Some cap
        end)
  in
  Cluster.run cl;
  let ctl = Controller.arm ~seed:(Int64.of_int c.seed) cl plan in
  let ok = ref 0 and failed = ref 0 in
  let probes_ok = ref true and reads = ref [] in
  let call cap op =
    Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300) ~retry:Api.default_retry
      cap ~op []
  in
  let _ =
    Cluster.in_process cl (fun () ->
        let last = ref (Engine.now eng) in
        for r = 0 to c.requests - 1 do
          Engine.delay (Time.ms 10);
          (* The virtual clock never runs backwards, faults or not. *)
          if Time.(Engine.now eng < !last) then
            failwith "virtual clock went backwards";
          last := Engine.now eng;
          (match call (!caps).(r mod c.nodes) "incr" with
          | Ok _ -> incr ok
          | Error _ -> incr failed);
          match !frozen with
          | Some cap when r mod 2 = 0 -> (
            match call cap "get" with
            | Ok [ Value.Int v ] -> reads := Some v :: !reads
            | Ok _ | Error _ -> reads := None :: !reads)
          | _ -> ()
        done;
        (* Post-heal: every fault has healed (the stream outlives the
           plan horizon), so every mirrored counter must answer. *)
        Array.iter
          (fun cap ->
            match call cap "get" with
            | Ok [ Value.Int _ ] -> ()
            | Ok _ | Error _ -> probes_ok := false)
          !caps)
  in
  Cluster.run cl;
  let timeline = Cluster.timeline cl in
  let dropped = Cluster.journal_dropped cl in
  {
    cluster = cl;
    plan;
    ok = !ok;
    failed = !failed;
    probes_ok = !probes_ok;
    injected = Controller.injected ctl;
    reads = List.rev !reads;
    timeline;
    profile = Obs.Profile.of_timeline timeline;
    violations = Obs.Check.run ~complete:(dropped = 0) timeline;
    dropped;
  }

(* ------------------------------------------------------------------ *)
(* The bundle's renderings *)

(* Table width of the hot-object reports (the health report's too). *)
let top_k = 10

let hot_table entries =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i e ->
      Printf.bprintf buf "  %2d. %-24s count %-8d err <= %d\n" (i + 1)
        e.Obs.Topk.e_key e.Obs.Topk.e_count e.Obs.Topk.e_err)
    entries;
  Buffer.contents buf

let hot_json entries =
  Obs.Json.List
    (List.map
       (fun e ->
         Obs.Json.Obj
           [
             ("object", Obs.Json.Str e.Obs.Topk.e_key);
             ("count", Obs.Json.Int e.Obs.Topk.e_count);
             ("err", Obs.Json.Int e.Obs.Topk.e_err);
           ])
       entries)

let health b = Option.get (Cluster.health b.cluster)

let health_text b =
  let cl = b.cluster in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Obs.Health.report (health b));
  (* The causal record of every state change, from node 0's journal
     (where the cluster records Alert events). *)
  let alerts =
    List.filter
      (fun ev ->
        match ev.Obs.Journal.ev_kind with
        | Obs.Journal.Alert _ -> true
        | _ -> false)
      (Obs.Journal.events (Cluster.journal cl 0))
  in
  Printf.bprintf buf "alert transitions (%d retained):\n"
    (List.length alerts);
  List.iter
    (fun ev ->
      Printf.bprintf buf "  %s\n"
        (Format.asprintf "%a" Obs.Journal.pp_event ev))
    alerts;
  let hot = Cluster.hot_objects_rollup cl ~k:top_k () in
  Printf.bprintf buf "hottest objects (cluster rollup, top %d):\n"
    (List.length hot);
  Buffer.add_string buf (hot_table hot);
  Buffer.contents buf

let top_text b =
  let cl = b.cluster in
  let buf = Buffer.create 1024 in
  for i = 0 to Cluster.node_count cl - 1 do
    let entries = Cluster.hot_objects cl ~k:top_k i in
    Printf.bprintf buf "node %d (top %d):\n%s" i (List.length entries)
      (hot_table entries)
  done;
  let hot = Cluster.hot_objects_rollup cl ~k:top_k () in
  Printf.bprintf buf "cluster rollup (top %d):\n%s" (List.length hot)
    (hot_table hot);
  Buffer.contents buf

let summary b =
  let cl = b.cluster in
  let eng = Cluster.engine cl in
  let tl = b.timeline in
  let attempts = b.ok + b.failed in
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "chaos: %d/%d invocations completed (%.1f%% available), %d faults \
     injected\n"
    b.ok attempts
    (100.0 *. Float.of_int b.ok /. Float.of_int (max 1 attempts))
    b.injected;
  Printf.bprintf buf "probes: %s\n"
    (if b.probes_ok then "every counter answered after the stream"
     else "some counter did not answer after the stream");
  Printf.bprintf buf "timeline: %d events in %d traces across %d nodes%s\n"
    (Obs.Timeline.length tl)
    (List.length (Obs.Timeline.traces tl))
    (List.length (Obs.Timeline.nodes tl))
    (if b.dropped > 0 then
       Printf.sprintf " (%d events dropped: traces incomplete)" b.dropped
     else "");
  (match b.violations with
  | [] -> Buffer.add_string buf "check: all invariants hold\n"
  | vs ->
    List.iter
      (fun v ->
        Printf.bprintf buf "  %s\n"
          (Format.asprintf "%a" Obs.Check.pp_violation v))
      vs;
    Printf.bprintf buf "check: %d violation(s)\n" (List.length vs));
  Printf.bprintf buf
    "simulated time %s; %d invocations (%d remote); %d events\n"
    (Time.to_string (Engine.now eng))
    (Cluster.stats_invocations cl)
    (Cluster.stats_remote_invocations cl)
    (Engine.events_processed eng);
  Buffer.contents buf

let json doc = Obs.Json.to_string ~compact:false doc

let files b =
  let pf = b.profile in
  [
    ("summary.txt", summary b);
    ("plan.txt", Plan.to_string b.plan);
    ( "metrics.json",
      Obs.Snapshot.to_string (Cluster.metrics_snapshot b.cluster) ^ "\n" );
    ("timeline.json", Obs.Timeline.to_chrome_string b.timeline);
    ("timeline.txt", Obs.Timeline.to_text b.timeline);
    ("profile.txt", Obs.Profile.to_text pf);
    ("profile.json", json (Obs.Profile.to_json pf));
    ("profile.folded", Obs.Profile.to_folded pf);
    ( "profile-chrome.json",
      Obs.Timeline.to_chrome_string ~extra:(Obs.Profile.chrome_extra pf)
        b.timeline );
    ("health.txt", health_text b);
    ( "health.json",
      json
        (Obs.Json.Obj
           [
             ("health", Obs.Health.to_json (health b));
             ( "hot_objects",
               hot_json (Cluster.hot_objects_rollup b.cluster ~k:top_k ()) );
           ]) );
    ("top.txt", top_text b);
    ("check.json", json (Obs.Check.violations_to_json b.violations));
  ]
