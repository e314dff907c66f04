(* The Eden benchmark: one closed-loop workload against Eden_kernel.Cluster,
   repeated with one seed for --seconds of host time, then checked and
   reported.  With --trace 1 it adds a traced repetition and the
   standalone layer probes, and reports the per-layer metrics.  The
   last line of standard output is one JSON object; everything above
   it is a human-readable report.  See README.md beside this file. *)

module W = Workload
module Json = Eden_obs.Json
module Stats = Eden_util.Stats

let usage =
  "eden_bench --workload (invoke-hot|locate-churn|ckpt-write) --seed N \
   --seconds S --trace (0|1)"

(* At least this many repetitions, whatever --seconds says, so that
   every host-time figure rests on several samples. *)
let min_reps = 5

(* Set-up takes milliseconds next to a repetition's seconds, so each
   repetition is followed by this many more set-ups.  The median of
   set-up time then samples the whole run, not one moment of it. *)
let extra_setups = 3
let out_dir = ".bench_out"

let stats xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let median xs = Stats.median (stats xs)

let spread xs =
  let s = stats xs in
  Printf.sprintf "min %.6g median %.6g max %.6g over %d" (Stats.min_value s) (Stats.median s)
    (Stats.max_value s) (Stats.count s)

(* Host time of the measured phase from the fastest repetition: on a
   shared machine, preemption and contention only ever add time. *)
let fastest (reps : Workload.rep list) =
  List.fold_left (fun a (x : Workload.rep) -> Float.min a x.host_s) infinity reps

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ms_of_ns ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let end_to_end (r : W.rep) reps ~setups ~heap_words =
  let att = r.attempted in
  let words = median (List.map (fun (x : W.rep) -> x.words) reps) in
  let c = W.count r.d in
  let heap = heap_words * (Sys.word_size / 8) in
  [
    m "setup_s" "s" (median setups);
    m "minor_words_per_op" "words/op" (words /. float_of_int att);
    m "peak_heap_mb" "MB" (float_of_int heap /. 1e6);
    m "op_p50_ms" "ms" (ms_of_ns (W.rank r.latency 0.5));
    m "op_p999_ms" "ms" (ms_of_ns (W.rank r.latency 0.999));
    m "ops_per_vs" "1/s" (float_of_int r.window_ops /. (float_of_int r.window_ns /. 1e9));
    m "frames_per_op" "frames/op" (ratio (c "net.frames_sent") att);
    m "wire_bytes_per_op" "B/op" (ratio (c "net.bytes_delivered") att);
    m "ok_ratio" "ratio" (ratio r.completed att);
    m "actives_per_object" "ratio" (ratio r.census r.expected);
  ]

let failed_total (r : W.rep) = List.fold_left (fun a (_, n) -> a + n) 0 r.failed
let dup_actives (r : W.rep) = max 0 (r.census - r.expected)

type traced = {
  tr : W.rep;
  profile : Eden_obs.Profile.t;
  violations : Eden_obs.Check.violation list;
  engine : Probes.result;
  lan : Probes.result;
  journal : Probes.result;
}

let per_layer (spec : W.spec) (r : W.rep) reps t =
  let att = r.attempted in
  let c = W.count r.d in
  let host = fastest reps in
  let words = median (List.map (fun (x : W.rep) -> x.words) reps) in
  let failed tag = float_of_int (Option.value ~default:0 (List.assoc_opt tag r.failed)) in
  let share cat = Eden_obs.Profile.share t.profile cat in
  let virt = float_of_int r.virt_ns in
  [
    m "ops_per_host_s" "1/s" (float_of_int r.completed /. host);
    m "sim.events_per_op" "events/op" (ratio (c "sim.events") att);
    m "sim.procs_per_op" "procs/op" (ratio (c "sim.processes_spawned") att);
    m "sim.host_ns_per_event" "ns/event" (host *. 1e9 /. float_of_int (c "sim.events"));
    m "sim.event_ns" "ns/event" t.engine.ns;
    m "sim.event_words" "words/event" t.engine.words;
    m "hw.cpu_jobs_per_op" "jobs/op" (ratio (c "hw.cpu_jobs") att);
    m "hw.cpu_busy_share" "ratio" (float_of_int (c "hw.cpu_busy_ns") /. (float_of_int r.gdps *. virt));
    m "hw.cpu_wait_p99_ms" "ms" r.cpu_wait_p99_ms;
    m "hw.disk_writes_per_op" "writes/op" (ratio (c "hw.disk_writes") att);
    m "hw.disk_bytes_per_op" "B/op" (ratio (c "hw.disk_bytes_written") att);
    m "hw.disk_busy_share" "ratio"
      (float_of_int (c "hw.disk_busy_ns") /. (float_of_int spec.nodes *. virt));
    m "net.collisions_per_frame" "ratio" (ratio (c "net.collisions") (c "net.frames_sent"));
    m "net.backoffs_per_frame" "ratio" (ratio (c "net.backoffs") (c "net.frames_sent"));
    m "net.broadcast_share" "ratio" (ratio (c "net.frames_broadcast") (c "net.frames_sent"));
    m "net.frames_dropped" "count" (float_of_int (c "net.frames_dropped"));
    m "net.bytes_per_frame" "B/frame" (ratio (c "net.bytes_delivered") (c "net.frames_delivered"));
    m "net.frame_ns" "ns/frame" t.lan.ns;
    m "net.frame_words" "words/frame" t.lan.words;
    m "kernel.remote_share" "ratio" (ratio (c "eden.invocations_remote") (c "eden.invocations"));
    m "kernel.hint_hit_ratio" "ratio"
      (ratio (c "eden.hint_hits") (c "eden.hint_hits" + c "eden.hint_misses"));
    m "kernel.locates_per_op" "locates/op" (ratio (c "eden.locate_broadcasts") att);
    m "kernel.nacks_per_op" "nacks/op" (ratio (c "eden.nacks") att);
    m "kernel.retries_per_op" "retries/op" (ratio (c "eden.retries") att);
    m "kernel.fail_no_such_object" "count" (failed "no_such_object");
    m "kernel.fail_timeout" "count" (failed "timeout");
    m "kernel.move_p50_ms" "ms" (ms_of_ns (W.rank r.move_ns 0.5));
    m "kernel.move_ok_ratio" "ratio" (ratio (Array.length r.move_ns) r.moves_tried);
    m "kernel.ckpt_p50_ms" "ms" (ms_of_ns (W.rank r.save_ns 0.5));
    m "kernel.ckpt_p999_ms" "ms" (ms_of_ns (W.rank r.save_ns 0.999));
    m "kernel.ckpt_bytes_per_write" "B/write" (ratio (c "eden.checkpoint_bytes") r.writes);
    m "kernel.recoveries" "count" (float_of_int (c "eden.recoveries"));
    m "kernel.create_host_us" "us" (median (List.map (fun (x : W.rep) -> x.create_us) reps));
    m "obs.journal_events_per_op" "events/op" (ratio (c "eden.journal.events") att);
    m "obs.spans_per_op" "spans/op" (ratio (c "obs.spans_started") att);
    m "obs.journal_dropped_share" "ratio" (ratio (c "eden.journal.dropped") (c "eden.journal.events"));
    m "obs.record_ns" "ns/record" t.journal.ns;
    m "obs.record_words" "words/record" t.journal.words;
    m "attr.service_share" "ratio" (share Eden_obs.Critical.Service);
    m "attr.queue_share" "ratio" (share Eden_obs.Critical.Queue);
    m "attr.wire_share" "ratio" (share Eden_obs.Critical.Wire);
    m "attr.directory_share" "ratio" (share Eden_obs.Critical.Directory);
    m "attr.backoff_share" "ratio" (share Eden_obs.Critical.Backoff);
    m "attr.wait_share" "ratio" (share Eden_obs.Critical.Wait);
    m "trace.check_violations" "count" (float_of_int (List.length t.violations));
    m "trace.overhead_words_per_op" "words/op" ((t.tr.words -. words) /. float_of_int att);
    m "trace.overhead_host_share" "ratio"
      ((t.tr.host_s /. median (List.map (fun (x : W.rep) -> x.host_s) reps)) -. 1.0);
    m "fail_ratio" "ratio" (ratio (failed_total r) att);
    m "dup_actives" "count" (float_of_int (dup_actives r));
  ]

(* ------------------------------------------------------------------ *)
(* The traced repetition's spans, written as JSON when the run ends *)

let span_json (s : W.span) =
  Json.Obj
    [
      ("id", Json.Int s.sp_id);
      ("parent", if s.sp_parent < 0 then Json.Null else Json.Int s.sp_parent);
      ("name", Json.Str s.sp_name);
      ("clock", Json.Str (if s.sp_client < 0 then "host" else "virtual"));
      ("client", Json.Int s.sp_client);
      ("start_ns", Json.Int s.sp_start);
      ("end_ns", Json.Int s.sp_end);
    ]

(* Self time per span name: duration minus what the span's children
   cover (a write's grow and save run one after the other). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (s : W.span) ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child s.sp_parent
          (s.sp_end - s.sp_start
          + Option.value ~default:0 (Hashtbl.find_opt child s.sp_parent)))
    spans;
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (s : W.span) ->
      let d = s.sp_end - s.sp_start in
      let self = d - Option.value ~default:0 (Hashtbl.find_opt child s.sp_id) in
      let n, tot, slf = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name s.sp_name) in
      Hashtbl.replace by_name s.sp_name (n + 1, tot + d, slf + self))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare
  |> List.map (fun (name, (n, tot, slf)) ->
         ( name,
           Json.Obj
             [ ("count", Json.Int n); ("total_ns", Json.Int tot); ("self_ns", Json.Int slf) ] ))

let write_trace (spec : W.spec) ~seed t ~checks_s =
  let tr = t.tr in
  let next = List.fold_left (fun a (x : W.span) -> max a (x.sp_id + 1)) 0 tr.spans in
  let host k name a b =
    { W.sp_id = next + k; sp_parent = -1; sp_name = name; sp_client = -1; sp_start = a; sp_end = b }
  in
  let ns s = int_of_float (s *. 1e9) in
  let s1 = ns tr.setup_s in
  let s2 = s1 + ns tr.host_s in
  let phases =
    [ host 0 "setup" 0 s1; host 1 "measured" s1 s2; host 2 "checks" s2 (s2 + ns checks_s) ]
  in
  let total = Eden_obs.Profile.total_ns t.profile in
  let layers =
    List.map
      (fun cat ->
        ( Eden_obs.Critical.category_name cat,
          Json.Int
            (int_of_float (Float.round (Eden_obs.Profile.share t.profile cat *. float_of_int total)))
        ))
      Eden_obs.Critical.categories
  in
  let json =
    Json.Obj
      [
        ("workload", Json.Str spec.name);
        ("seed", Json.Int seed);
        ("spans", Json.List (List.map span_json (phases @ tr.spans)));
        ( "self_time",
          Json.Obj
            [
              ("calls", Json.Obj (self_times tr.spans));
              ("layers", Json.Obj layers);
              ("host_phases", Json.Obj (self_times phases));
            ] );
        ( "violations",
          Eden_obs.Check.violations_to_json t.violations );
      ]
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace.json" spec.name seed) in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  path

(* ------------------------------------------------------------------ *)

let main ~workload ~seed ~seconds ~trace =
  let spec =
    match W.find workload with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload " ^ workload);
      exit 2
  in
  let start = Unix.gettimeofday () in
  (* The peak heap is read after the first repetition: later ones start
     from a heap shaped by earlier ones, so their peak would depend on
     how many repetitions the host clock allowed. *)
  let setups = ref [] in
  let repetition () =
    Gc.compact ();
    let r = W.run spec ~seed ~traced:false in
    let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    setups := r.setup_s :: !setups;
    for _ = 1 to extra_setups do
      Gc.compact ();
      setups := (W.setup spec ~seed ~traced:false).env_setup_s :: !setups
    done;
    (r, heap_words)
  in
  let first, heap_words = repetition () in
  let reps = ref [ first ] in
  (* Stop when one more repetition would overrun --seconds. *)
  let last = ref (Unix.gettimeofday () -. start) in
  while
    List.length !reps < min_reps
    || Unix.gettimeofday () -. start +. !last <= float_of_int seconds
  do
    let t0 = Unix.gettimeofday () in
    reps := fst (repetition ()) :: !reps;
    last := Unix.gettimeofday () -. t0
  done;
  let reps = List.rev !reps in
  let r = List.hd reps in
  let setups = !setups in
  let e2e = end_to_end r reps ~setups ~heap_words in
  (* Checks.  A program defect is counted and printed; only a fault in
     the benchmark itself raises. *)
  let defects = ref [] in
  let defect name n = if n > 0 then defects := (name, n) :: !defects in
  List.iter (fun (k, n) -> defect k n) r.wrong;
  defect "tally_mismatch" (abs (r.attempted - r.completed - failed_total r));
  defect "census_missing" (max 0 (r.expected - r.census));
  let fp = W.fingerprint r in
  defect "same_seed_mismatch"
    (List.length (List.filter (fun x -> not (String.equal (W.fingerprint x) fp)) reps));
  let traced =
    if not trace then None
    else begin
      (* The probes run first, on a heap the traced run has not grown. *)
      let frame_bytes =
        let p = Eden_net.Params.default in
        let mean =
          int_of_float (ratio (W.count r.d "net.bytes_delivered") (W.count r.d "net.frames_delivered"))
        in
        max p.min_frame_bytes (min p.max_frame_bytes mean)
      in
      let engine = Probes.engine () in
      let lan = Probes.lan ~frame_bytes in
      let journal = Probes.journal () in
      Gc.compact ();
      let tr = W.run spec ~seed ~traced:true in
      if tr.journal_dropped > 0 then failwith "traced run: the journal cap was too small";
      let c0 = Unix.gettimeofday () in
      let tl = Option.get tr.timeline in
      let profile = Eden_obs.Profile.of_timeline tl in
      let violations = Eden_obs.Check.run ~complete:true tl in
      let checks_s = Unix.gettimeofday () -. c0 in
      defect "trace_check_violations" (List.length violations);
      defect "traced_run_diverged" (if String.equal (W.fingerprint tr) fp then 0 else 1);
      let t = { tr = { tr with timeline = None }; profile; violations; engine; lan; journal } in
      let path = write_trace spec ~seed t ~checks_s in
      Printf.printf "trace: %d spans written to %s\n" (List.length tr.spans) path;
      Some t
    end
  in
  let layer = Option.map (per_layer spec r reps) traced in
  (* The human-readable report. *)
  Printf.printf "workload %s  seed %d  repetitions %d  (%.1f s host)\n" spec.name seed
    (List.length reps) (Unix.gettimeofday () -. start);
  Printf.printf "  host per repetition: measured %s s; setup %s s\n"
    (spread (List.map (fun (x : W.rep) -> x.host_s) reps))
    (spread setups);
  Printf.printf "  measured host s per repetition, in order: %s\n"
    (String.concat " " (List.map (fun (x : W.rep) -> Printf.sprintf "%.3f" x.host_s) reps));
  Printf.printf "  ops attempted %d completed %d failed %d; latency samples %d (%d beyond p999)\n"
    r.attempted r.completed (failed_total r) (Array.length r.latency)
    (Array.length r.latency - int_of_float (Float.ceil (0.999 *. float_of_int (Array.length r.latency))));
  List.iter (fun (k, n) -> Printf.printf "  failed %-20s %d\n" k n) r.failed;
  List.iter (fun (k, n) -> Printf.printf "  set-up call failed %-20s %d\n" k n) r.setup_failed;
  Printf.printf "  census %d active where %d expected (dup_actives %d)\n" r.census r.expected
    (dup_actives r);
  let show { name; unit; value } = Printf.printf "  %-28s %14.6g %s\n" name value unit in
  print_endline "end-to-end:";
  List.iter show e2e;
  Option.iter
    (fun l ->
      print_endline "per-layer:";
      List.iter show l)
    layer;
  if !defects = [] then
    Printf.printf
      "checks: all passed (reply values, tally, census, %d same-seed repetitions%s)\n"
      (List.length reps)
      (if trace then ", trace checker, traced run = untraced" else "")
  else List.iter (fun (k, n) -> Printf.printf "check failed: %s (%d)\n" k n) (List.rev !defects);
  let metrics = match layer with Some l -> l | None -> e2e in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (!defects = []));
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int (failed_total r));
        ( "metrics",
          Json.Obj
            (List.map
               (fun { name; unit; value } ->
                 (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of invoke-hot, locate-churn, ckpt-write");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds of measured repetitions");
      ("--trace", Arg.Set_int trace, "0|1 add the traced repetition and per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload = "" || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
