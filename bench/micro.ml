(* M1-M6 — Bechamel microbenchmarks of the substrate itself: real
   wall-clock cost per operation of the simulator's hot paths.  These
   are not simulated-time experiments; they justify trusting the
   experiment harness to run large configurations. *)

open Bechamel
open Toolkit
open Eden_util
open Eden_sim

(* M1: schedule + drain one engine event. *)
let m1_engine_event =
  Test.make ~name:"M1 engine event"
    (Staged.stage (fun () ->
         let eng = Engine.create () in
         for _ = 1 to 64 do
           Engine.schedule_after eng (Time.us 1) (fun () -> ())
         done;
         Engine.run eng))

(* M2: spawn, run and finish a delaying process. *)
let m2_process =
  Test.make ~name:"M2 process lifecycle"
    (Staged.stage (fun () ->
         let eng = Engine.create () in
         for _ = 1 to 16 do
           ignore (Engine.spawn eng (fun () -> Engine.delay (Time.us 5)))
         done;
         Engine.run eng))

(* M3: a semaphore hand-off cycle between two processes. *)
let m3_semaphore =
  Test.make ~name:"M3 semaphore handoff"
    (Staged.stage (fun () ->
         let eng = Engine.create () in
         let sem = Semaphore.create eng ~init:0 in
         let _ =
           Engine.spawn eng (fun () ->
               for _ = 1 to 16 do
                 ignore (Semaphore.acquire sem)
               done)
         in
         let _ =
           Engine.spawn eng (fun () ->
               for _ = 1 to 16 do
                 Engine.delay (Time.us 1);
                 Semaphore.release sem
               done)
         in
         Engine.run eng))

(* M4: priority-queue churn at event-loop scale. *)
let m4_pqueue =
  Test.make ~name:"M4 pqueue push/pop x256"
    (Staged.stage (fun () ->
         let h = Pqueue.create ~dummy:0 in
         for i = 0 to 255 do
           Pqueue.push h ((i * 7919) land 1023) i
         done;
         while not (Pqueue.is_empty h) do
           ignore (Pqueue.pop_exn h)
         done))

(* M5: wire-size computation over a nested value. *)
let m5_value_size =
  let open Eden_kernel in
  let v =
    Value.List
      (List.init 16 (fun i ->
           Value.Pair
             ( Value.Str (Printf.sprintf "field%d" i),
               Value.List [ Value.Int i; Value.Blob 64; Value.Bool true ] )))
  in
  Test.make ~name:"M5 value size"
    (Staged.stage (fun () -> ignore (Value.size_bytes v)))

(* M6: the deterministic PRNG. *)
let m6_splitmix =
  let g = Splitmix.create 42L in
  Test.make ~name:"M6 splitmix int"
    (Staged.stage (fun () -> ignore (Splitmix.int g 1_000_000)))

(* M7: the full stack — build a 3-node cluster, create an object, run
   20 invocations (10 remote), in real time. *)
let m7_full_stack =
  Test.make ~name:"M7 cluster + 20 invocations"
    (Staged.stage (fun () ->
         let open Eden_kernel in
         let cl = Cluster.default ~n_nodes:3 () in
         Cluster.register_type cl Common.bench_type;
         let _ =
           Cluster.in_process cl (fun () ->
               match
                 Cluster.create_object cl ~node:0 ~type_name:"bench_obj"
                   Value.Unit
               with
               | Error _ -> ()
               | Ok cap ->
                 for i = 0 to 19 do
                   ignore
                     (Cluster.invoke cl ~from:(i mod 2) cap ~op:"ping" [])
                 done)
         in
         Cluster.run cl))

let tests =
  [ m1_engine_event; m2_process; m3_semaphore; m4_pqueue; m5_value_size;
    m6_splitmix; m7_full_stack ]

let run () =
  Common.heading "M1-M6" "substrate microbenchmarks (real time, Bechamel)";
  let cfg =
    Benchmark.cfg ~limit:500
      ~quota:(Bechamel.Time.second 0.25)
      ~kde:None ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table =
    Table.create ~title:"M  nanoseconds per run (ordinary least squares)"
      ~columns:[ ("benchmark", Table.Left); ("ns/run", Table.Right) ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result =
            Benchmark.run cfg [ Instance.monotonic_clock ] elt
          in
          let est = Analyze.one ols Instance.monotonic_clock result in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (x :: _) -> x
            | Some [] | None -> Float.nan
          in
          Table.add_row table
            [ Test.Elt.name elt; Printf.sprintf "%.0f" ns ])
        (Test.elements test))
    tests;
  Table.print table;
  Common.note
    "single-event and process costs in the hundreds of nanoseconds keep \
     million-event experiments interactive."
