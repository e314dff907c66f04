(* Shared plumbing for the experiment harness. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Api

let heading id title =
  Printf.printf "\n%s\n%s  %s\n%s\n"
    (String.make 72 '=') id title (String.make 72 '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "-- %s\n" s) fmt

(* A self-describing served object used across experiments: a counter
   with a CPU-burning op and reliability controls. *)
let bench_type =
  Typemgr.make_exn ~name:"bench_obj"
    ~classes:
      (Opclass.one_class ~name:"all"
         ~operations:
           [ "ping"; "work"; "grow"; "save"; "die"; "get"; "set_rel" ]
         ~limit:16)
    [
      Typemgr.operation "ping" ~mutates:false (fun _ args ->
          let* _ = Ok args in
          reply []);
      Typemgr.operation "work" ~mutates:false (fun ctx args ->
          let* a, b = arg2 args in
          let* us = int_arg b in
          ctx.compute (Time.us us);
          reply [ a ]);
      Typemgr.operation "grow" (fun ctx args ->
          (* Replace the representation with a blob of the given size. *)
          let* v = arg1 args in
          let* bytes = int_arg v in
          let* () = ctx.set_repr (Value.Blob bytes) in
          reply_unit);
      Typemgr.operation "save" (fun ctx args ->
          let* () = no_args args in
          let* () = ctx.checkpoint () in
          reply_unit);
      Typemgr.operation "die" (fun ctx args ->
          let* () = no_args args in
          ctx.crash ();
          reply_unit);
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
      Typemgr.operation "set_rel" (fun ctx args ->
          (* Int -1 = local; Int n = remote at n; List = mirrored. *)
          let* v = arg1 args in
          let* rel =
            match v with
            | Value.Int -1 -> Ok Reliability.Local
            | Value.Int n -> Ok (Reliability.Remote n)
            | Value.List sites ->
              Ok
                (Reliability.Mirrored
                   (List.filter_map
                      (fun s -> Result.to_option (Value.to_int s))
                      sites))
            | _ -> Error (Error.Bad_arguments "set_rel: int or list")
          in
          let* () = ctx.set_reliability rel in
          reply_unit);
    ]

(* The harness attaches a metrics snapshot of each experiment's most
   recently built cluster to its output (see main.ml), so every
   experiment's numbers come with the kernel/network counters that
   produced them. *)
let current_cluster : Cluster.t option ref = ref None

(* Headline results an experiment publishes into its BENCH_<id>.json
   summary (below); cleared between experiments by the harness. *)
let summary_results : (string * Eden_obs.Json.t) list ref = ref []

let reset_metrics () =
  current_cluster := None;
  summary_results := []

let attach_metrics ~id () =
  match !current_cluster with
  | None -> ()
  | Some cl ->
    let snap = Cluster.metrics_snapshot cl in
    Printf.printf "METRICS %s %s\n" id
      (Eden_obs.Snapshot.to_string ~compact:true snap)

(* ------------------------------------------------------------------ *)
(* Machine-readable run summaries: every experiment run ends with a
   BENCH_<id>.json in the working directory — the experiment's id and
   title, whatever headline results it published, and the cluster-wide
   counter totals of the last cluster it built.  Field order is fixed
   and counters arrive pre-sorted from the registry, so as long as an
   experiment publishes virtual-time quantities (not host timings) a
   same-seed rerun writes byte-identical files and downstream tooling
   can diff two checkouts' results directly. *)

let summary_note key v = summary_results := (key, v) :: !summary_results
let summary_int key n = summary_note key (Eden_obs.Json.Int n)
let summary_float key f = summary_note key (Eden_obs.Json.Float f)
let summary_str key s = summary_note key (Eden_obs.Json.Str s)

(* Counters summed across label sets (per-node counters roll up
   cluster-wide); gauges and histograms are point-in-time or
   host-dependent detail that belongs to the METRICS line, not the
   summary. *)
let counter_totals cl =
  let snap = Cluster.metrics_snapshot cl in
  let totals = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun s ->
      match s.Eden_obs.Metrics.s_value with
      | Eden_obs.Metrics.Counter n ->
        let name = s.Eden_obs.Metrics.s_name in
        if not (Hashtbl.mem totals name) then order := name :: !order;
        Hashtbl.replace totals name
          (n + Option.value ~default:0 (Hashtbl.find_opt totals name))
      | _ -> ())
    snap.Eden_obs.Snapshot.metrics;
  List.rev_map
    (fun name -> (name, Eden_obs.Json.Int (Hashtbl.find totals name)))
    !order

let write_summary ~id ~title () =
  let json =
    Eden_obs.Json.Obj
      [
        ("schema", Eden_obs.Json.Str "eden-bench/1");
        ("id", Eden_obs.Json.Str id);
        ("title", Eden_obs.Json.Str title);
        ("results", Eden_obs.Json.Obj (List.rev !summary_results));
        ( "counters",
          Eden_obs.Json.Obj
            (match !current_cluster with
            | Some cl -> counter_totals cl
            | None -> []) );
      ]
  in
  Eden_obs.Snapshot.write_string
    ~path:(Printf.sprintf "BENCH_%s.json" id)
    (Eden_obs.Json.to_string ~compact:false json ^ "\n")

let fresh_cluster ?(seed = 42L) ?options ?coalesce ?journal_cap ?health ~n ()
    =
  let cl =
    Cluster.default ~seed ?options ?coalesce ?journal_cap ?health ~n_nodes:n
      ()
  in
  Cluster.register_type cl bench_type;
  current_cluster := Some cl;
  cl

(* Nodes with enough memory to host megabyte representations (the
   checkpoint and mobility sweeps need headroom beyond 1 MB). *)
let big_cluster ?(seed = 42L) ?options ~n () =
  let configs =
    List.init n (fun i ->
        {
          (Eden_hw.Machine.default_config ~name:(Printf.sprintf "node%d" i)) with
          Eden_hw.Machine.memory_bytes = 4_000_000;
        })
  in
  let cl = Cluster.create ~seed ?options ~configs () in
  Cluster.register_type cl bench_type;
  current_cluster := Some cl;
  cl

(* Run [body] as a driver and return its value once the sim drains. *)
let drive cl body =
  let result = ref None in
  let _ = Cluster.in_process cl (fun () -> result := Some (body ())) in
  Cluster.run cl;
  match !result with
  | Some r -> r
  | None -> failwith "bench driver did not complete"

let must label = function
  | Ok v -> v
  | Error e -> failwith (label ^ ": " ^ Error.to_string e)

(* Simulated duration of [thunk], which must be called in-process. *)
let timed cl thunk =
  let eng = Cluster.engine cl in
  let t0 = Engine.now eng in
  let r = thunk () in
  (Time.diff (Engine.now eng) t0, r)

let mean_over cl ~warmup ~iters thunk =
  for _ = 1 to warmup do
    ignore (thunk ())
  done;
  let s = Stats.create () in
  for _ = 1 to iters do
    let d, _ = timed cl thunk in
    Stats.add_time s d
  done;
  s
