(* E25 — critical-path profiler: attribution under injected bottlenecks.

   The profiler's claim is not that it times requests — the latency
   histogram already does — but that it *names the bottleneck*: walk
   each request's causal trace, attribute every nanosecond of its
   end-to-end latency to a category, and the dominant category points
   at the subsystem to fix.  This experiment injects three bottlenecks
   whose ground truth is known by construction and checks the profiler
   blames the right one each time:

   - part A: a slow node.  Every unicast touching the object's home is
     held back mid-flight; the hold is endpoint degradation, so the
     profiler must charge it to [service] — the node is slow, not the
     wire.
   - part B: a near-saturation Ethernet.  Two blob pumps push the
     shared segment toward its knee; the measured reads queue in the
     collision domain, so [wire] (or [queue], once the target's port
     backs up behind delayed departures) must dominate.
   - part C: a hot directory shard.  With the hint cache off every
     cold touch resolves through the sharded directory, and all the
     touched names are filtered (via [Cluster.directory_shard]) to
     hash to the *same* shard, which the whole cluster then hammers
     concurrently — [directory] must dominate.

   Two more properties ride along:

   - determinism: the profile is a pure function of the trace, so two
     same-seed runs must render byte-identical reports (asserted on
     part A).
   - overhead: profiling adds journal kinds on the invocation path and
     the online attribution fold over every journalled event, with its
     ten counters.  Re-run E20's paired-ratio
     methodology (compacted heap, off/on interleaved, median of
     per-pair ratios) on E18's locality-free invocation stream with
     [use_profiling] toggled.  Acceptance: < 5% host time.

   `make gates` runs the smoke variant: shorter streams, the
   same three dominance assertions, overhead reported but not the
   point. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Common
module Profile = Eden_obs.Profile
module Critical = Eden_obs.Critical

let smoke = ref false

let profile pf = (Profile.dominant pf, Profile.share pf (Profile.dominant pf))

let report label pf =
  let dom, share = profile pf in
  Printf.printf "  %-22s %4d requests  dominant %-9s %5.1f%%  (%s total)\n"
    label (Profile.requests pf)
    (Critical.category_name dom)
    (100.0 *. share)
    (Time.to_string (Time.ns (Profile.total_ns pf)));
  let key = String.map (function ' ' -> '_' | c -> c) label in
  summary_str (key ^ "_dominant") (Critical.category_name dom);
  summary_float (key ^ "_share") share

let assert_dominant label pf expected =
  let dom, _ = profile pf in
  if not (List.mem dom expected) then
    failwith
      (Printf.sprintf "E25 %s: dominant category %s, expected %s" label
         (Critical.category_name dom)
         (String.concat "|" (List.map Critical.category_name expected)))

(* ------------------------------------------------------------------ *)
(* Part A: slow node -> service *)

let a_nodes = 4
let a_home = 3
let a_slow_by = Time.ms 25
let read_gap = Time.ms 5

let profiled = { Cluster.default_options with Cluster.use_profiling = true }

let slow_node_run ~seed ~reads =
  let cl = fresh_cluster ~seed ~options:profiled ~n:a_nodes () in
  let cap =
    drive cl (fun () ->
        must "create"
          (Cluster.create_object cl ~node:a_home ~type_name:"bench_obj"
             (Value.Int 7)))
  in
  (* Degrade the home for the whole measured stream: the holds land on
     both the request and the reply legs, and the profiler must fold
     them into service time, not wire time. *)
  let plan =
    Eden_fault.Plan.make
      [
        {
          Eden_fault.Plan.at = Time.ms 1;
          action = Eden_fault.Plan.Slow_node { node = a_home; by = a_slow_by };
        };
      ]
  in
  let _ctl = Eden_fault.Controller.arm cl plan in
  drive cl (fun () ->
      for _ = 1 to reads do
        Engine.delay read_gap;
        ignore
          (must "get"
             (Cluster.invoke cl ~from:0 ~timeout:(Time.s 5) cap ~op:"get" []))
      done);
  Profile.of_timeline (Cluster.timeline cl)

let part_a ~reads =
  note "part A: home node held back by %s on every unicast"
    (Time.to_string a_slow_by);
  let pf = slow_node_run ~seed:25L ~reads in
  report "slow node" pf;
  assert_dominant "part A" pf [ Critical.Service ];
  (* Same seed, same trace, same bytes: the report is a pure function
     of the causal trace, so a rerun must render identically. *)
  let pf' = slow_node_run ~seed:25L ~reads in
  if not (String.equal (Profile.to_text pf) (Profile.to_text pf')) then
    failwith "E25 part A: same-seed profiles differ";
  note "same-seed reruns render byte-identical profiles"

(* ------------------------------------------------------------------ *)
(* Part B: near-saturation Ethernet -> wire/queue *)

let b_nodes = 6

let saturated_run ~reads =
  let cl = fresh_cluster ~seed:25L ~options:profiled ~n:b_nodes () in
  let cap, noise =
    drive cl (fun () ->
        let cap =
          must "create"
            (Cluster.create_object cl ~node:5 ~type_name:"bench_obj"
               (Value.Int 7))
        in
        let noise =
          must "create noise"
            (Cluster.create_object cl ~node:4 ~type_name:"bench_obj"
               Value.Unit)
        in
        (cap, noise))
  in
  let span = Time.scale read_gap (reads + 4) in
  (* Same calibration as E22 part B: the two cadences together put the
     10 Mb/s segment around 70% utilisation — past the knee of the
     collision curve, short of collapse. *)
  List.iter
    (fun (src, gap) ->
      ignore
        (Cluster.in_process cl (fun () ->
             let eng = Cluster.engine cl in
             let stop = Time.add (Engine.now eng) span in
             while Time.compare (Engine.now eng) stop < 0 do
               Engine.delay gap;
               ignore
                 (Cluster.invoke_async cl ~from:src noise ~op:"work"
                    [ Value.Blob 900; Value.Int 5 ])
             done)))
    [ (2, Time.us 6100); (3, Time.us 7300) ];
  drive cl (fun () ->
      for _ = 1 to reads do
        Engine.delay read_gap;
        ignore
          (must "get"
             (Cluster.invoke cl ~from:0 ~timeout:(Time.s 5) cap ~op:"get" []))
      done);
  Profile.of_timeline (Cluster.timeline cl)

let part_b ~reads =
  note "part B: two blob pumps hold the shared segment near saturation";
  let pf = saturated_run ~reads in
  report "saturated wire" pf;
  assert_dominant "part B" pf [ Critical.Wire; Critical.Queue ]

(* ------------------------------------------------------------------ *)
(* Part C: hot directory shard -> directory *)

let c_nodes = 8

let c_options =
  {
    Cluster.default_options with
    Cluster.use_hint_cache = false;
    use_forwarding = false;
    use_directory = true;
    use_profiling = true;
  }

(* Create candidate objects round-robin across the cluster and keep
   only those whose name the directory assigns to [shard] — every
   measured touch then resolves through that one shard, whatever node
   the object actually lives on. *)
let sharded_caps cl ~shard ~want =
  let caps = ref [] and made = ref 0 in
  while List.length !caps < want do
    let node = !made mod c_nodes in
    incr made;
    let cap =
      must "create"
        (Cluster.create_object cl ~node ~type_name:"bench_obj"
           (Value.Int !made))
    in
    if Cluster.directory_shard cl (Capability.name cap) = shard then
      caps := cap :: !caps
  done;
  List.rev !caps

let hot_shard_run ~touches =
  let configs =
    List.init c_nodes (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "n%d" i))
  in
  let cl =
    Cluster.create ~seed:25L ~options:c_options ~segments:[ 4; 4 ]
      ~journal_cap:16384 ~configs ()
  in
  Cluster.register_type cl bench_type;
  current_cluster := Some cl;
  let caps =
    drive cl (fun () ->
        let caps = sharded_caps cl ~shard:0 ~want:touches in
        Engine.delay (Time.ms 5);
        caps)
  in
  (* The cold touches fire in concurrent waves of 16, awaiting each
     wave before the next: every wave piles 16 simultaneous
     resolutions onto the one shard, so its port backs up and
     resolution — not the invocation itself — is where the latency
     goes.  Bounding the wave keeps the volley inside the locate
     machinery's envelope (a big enough all-at-once burst outruns
     locate reply windows entirely, which fails requests instead of
     slowing them). *)
  let wave = 16 in
  drive cl (fun () ->
      let rec waves i caps =
        match caps with
        | [] -> ()
        | _ ->
          let now, later =
            List.filteri (fun k _ -> k < wave) caps,
            List.filteri (fun k _ -> k >= wave) caps
          in
          let promises =
            List.mapi
              (fun k cap ->
                Cluster.invoke_async cl
                  ~from:((i + k) mod c_nodes)
                  ~timeout:(Time.s 5) cap ~op:"ping" [])
              now
          in
          List.iter
            (fun p ->
              match Promise.await p with
              | Some r -> ignore (must "ping" r)
              | None -> failwith "E25 part C: touch did not complete")
            promises;
          waves (i + List.length now) later
      in
      waves 0 caps);
  Profile.of_timeline (Cluster.timeline cl)

let part_c ~touches =
  note "part C: %d cold names, all hashed to shard 0, touched in waves of 16"
    touches;
  let pf = hot_shard_run ~touches in
  report "hot directory shard" pf;
  assert_dominant "part C" pf [ Critical.Directory ]

(* ------------------------------------------------------------------ *)
(* Overhead: E20's paired-ratio methodology on E18's stream *)

let o_nodes = 4
let o_repeats = 7

let overhead_workload ~profiling ~iters =
  let options = if profiling then profiled else Cluster.default_options in
  let cl = fresh_cluster ~options ~n:o_nodes () in
  let virt =
    drive cl (fun () ->
        let cap =
          must "create"
            (Cluster.create_object cl ~node:0 ~type_name:"bench_obj"
               Value.Unit)
        in
        let args = [ Value.Blob 256; Value.Int 10 ] in
        for i = 1 to iters do
          ignore
            (must "work"
               (Cluster.invoke cl ~from:(i mod o_nodes) cap ~op:"work" args))
        done;
        Engine.now (Cluster.engine cl))
  in
  ignore cl;
  virt

let timed_run ~profiling ~iters =
  Gc.compact ();
  let t0 = Sys.time () in
  let virt = overhead_workload ~profiling ~iters in
  (virt, Sys.time () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let overhead ~iters =
  let ratios = ref [] in
  let virts = ref None in
  for _ = 1 to o_repeats do
    let virt_off, e_off = timed_run ~profiling:false ~iters in
    let virt_on, e_on = timed_run ~profiling:true ~iters in
    ratios := (e_on /. e_off) :: !ratios;
    virts := Some (virt_off, virt_on)
  done;
  let virt_off, virt_on = Option.get !virts in
  if not (Time.equal virt_off virt_on) then
    note
      "WARNING: virtual end times differ (%s vs %s) — profiling leaked into \
       simulated behaviour"
      (Time.to_string virt_off) (Time.to_string virt_on);
  let pct = 100.0 *. (median !ratios -. 1.0) in
  note
    "profiling overhead: %.1f%% host time (median of %d paired off/on \
     ratios over %d invocations; acceptance: < 5%%); virtual time is \
     identical by construction (holds and flushes are journaled, never \
     rescheduled)."
    pct o_repeats iters

let run () =
  heading "E25" "critical-path profiler: attribution under injected \
                 bottlenecks";
  let reads = if !smoke then 60 else 150 in
  let touches = if !smoke then 24 else 48 in
  let iters = if !smoke then 6_000 else 24_000 in
  part_a ~reads;
  part_b ~reads;
  part_c ~touches;
  overhead ~iters;
  note "E25 acceptance holds: three injected bottlenecks, three correct \
        attributions"
