(* The three closed-loop workloads, and one repetition of a workload:
   build the cluster, warm it up, run the clients to completion, and
   read back what happened.  Every client is a simulated process; a
   client issues its next call only when the previous one returned. *)

open Eden_util
open Eden_sim
open Eden_kernel

type kind = Invoke_hot | Locate_churn | Ckpt_write

type spec = {
  kind : kind;
  name : string;
  nodes : int;
  objects_per_node : int;
  clients_per_node : int;
  ops_per_client : int;
  payload_bytes : int;  (** echoed by [work]; 0 when the workload does not call it *)
  work_us : int;  (** CPU time [work] consumes at the target *)
  timeout : Time.t option;  (** per-attempt deadline of every client call *)
  retry : Api.retry;
}

(* Why each workload exists is recorded in README.md beside this file. *)
let specs =
  [
    {
      kind = Invoke_hot;
      name = "invoke-hot";
      nodes = 4;
      objects_per_node = 4;
      clients_per_node = 2;
      ops_per_client = 8_000;
      payload_bytes = 256;
      work_us = 50;
      timeout = None;
      retry = Api.no_retry;
    };
    {
      kind = Locate_churn;
      name = "locate-churn";
      nodes = 16;
      objects_per_node = 16;
      clients_per_node = 1;
      ops_per_client = 4_000;
      payload_bytes = 64;
      work_us = 0;
      timeout = Some (Time.s 2);
      retry = Api.default_retry;
    };
    {
      kind = Ckpt_write;
      name = "ckpt-write";
      nodes = 4;
      objects_per_node = 8;
      clients_per_node = 1;
      ops_per_client = 8_000;
      payload_bytes = 0;
      work_us = 0;
      timeout = None;
      retry = Api.no_retry;
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) specs
let objects spec = spec.nodes * spec.objects_per_node
let clients spec = spec.nodes * spec.clients_per_node

(* ckpt-write: the representation size, and reads per write. *)
let repr_bytes = 8192
let reads_per_write = 3

(* locate-churn: one move every [move_period] of virtual time. *)
let move_period = Time.ms 50

(* The mover stops once no client call has ended for this long, so a
   client that hangs forever cannot keep the simulation running. *)
let stall_window = Time.s 30

let obj_type =
  let open Api in
  Typemgr.make_exn ~name:"bench_obj"
    ~classes:
      (Opclass.one_class ~name:"all"
         ~operations:[ "work"; "get"; "grow"; "save"; "mirror" ]
         ~limit:16)
    [
      Typemgr.operation "work" ~mutates:false (fun ctx args ->
          let* a, b = arg2 args in
          let* us = int_arg b in
          ctx.compute (Time.us us);
          reply [ a ]);
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
      Typemgr.operation "grow" (fun ctx args ->
          let* v = arg1 args in
          let* bytes = int_arg v in
          let* () = ctx.set_repr (Value.Blob bytes) in
          reply_unit);
      Typemgr.operation "save" (fun ctx args ->
          let* () = no_args args in
          let* () = ctx.checkpoint () in
          reply_unit);
      Typemgr.operation "mirror" (fun ctx args ->
          let* v = arg1 args in
          let sites =
            match v with
            | Value.List l ->
              List.filter_map (fun s -> Result.to_option (Value.to_int s)) l
            | _ -> []
          in
          let* () = ctx.set_reliability (Reliability.Mirrored sites) in
          reply_unit);
    ]

let error_tag = function
  | Error.No_such_object -> "no_such_object"
  | Error.No_such_operation _ -> "no_such_operation"
  | Error.Rights_violation _ -> "rights_violation"
  | Error.Timeout -> "timeout"
  | Error.Object_crashed -> "object_crashed"
  | Error.Node_down -> "node_down"
  | Error.Out_of_memory -> "out_of_memory"
  | Error.Frozen_immutable -> "frozen_immutable"
  | Error.Bad_arguments _ -> "bad_arguments"
  | Error.User_error _ -> "user_error"
  | Error.Move_refused _ -> "move_refused"
  | Error.Disk_failed -> "disk_failed"

(* A growable int buffer. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort compare a;
    a
end

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let rank a p =
  let n = Array.length a in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* A benchmark-side span: one client call (virtual time) or one phase
   of the benchmark itself (host time). *)
type span = {
  sp_id : int;
  sp_parent : int;  (** -1 for a root *)
  sp_name : string;
  sp_client : int;  (** -1 for a host phase *)
  sp_start : int;  (** ns, virtual or host per [sp_client] *)
  sp_end : int;
}

(* Counters read from outside the program, summed over labels: every
   counter in the cluster's registry plus CPU and disk busy time. *)
let counts cl =
  let tbl = Hashtbl.create 64 in
  let bump name n =
    Hashtbl.replace tbl name
      (n + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  Eden_obs.Metrics.iter (Cluster.metrics cl) (fun name _ v ->
      match v with Eden_obs.Metrics.Counter n -> bump name n | _ -> ());
  for i = 0 to Cluster.node_count cl - 1 do
    let m = Cluster.machine cl i in
    bump "hw.cpu_busy_ns" (Time.to_ns (Eden_hw.Cpu.busy_time (Eden_hw.Machine.cpu m)));
    bump "hw.disk_busy_ns"
      (Time.to_ns (Eden_hw.Disk.busy_time (Eden_hw.Machine.disk m)))
  done;
  bump "obs.spans_started" (Eden_obs.Span.started (Cluster.spans cl));
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let delta after before =
  List.map
    (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after

let count d name = Option.value ~default:0 (List.assoc_opt name d)

(* The observability counters legitimately differ between a traced and
   an untraced run; everything else must not. *)
let simulated name =
  not
    (String.starts_with ~prefix:"eden.journal" name
    || String.starts_with ~prefix:"eden.profile" name
    || String.starts_with ~prefix:"eden.span" name
    || String.starts_with ~prefix:"obs." name)

type rep = {
  attempted : int;
  completed : int;
  failed : (string * int) list;  (** by error kind, sorted *)
  wrong : (string * int) list;  (** output-check failures by check, sorted *)
  setup_failed : (string * int) list;  (** set-up calls that failed, by call and error *)
  latency : int array;  (** ns of completed ops, sorted *)
  virt_ns : int;  (** virtual length of the measured phase *)
  window_ns : int;  (** virtual time until the first client finished *)
  window_ops : int;  (** ops completed in that window, all clients running *)
  d : (string * int) list;  (** counter deltas over the measured phase *)
  moves_tried : int;
  move_ns : int array;  (** sorted, successful moves *)
  writes : int;
  save_ns : int array;  (** sorted, successful saves *)
  census : int;  (** active objects at the end, node objects included *)
  expected : int;
  cpu_wait_p99_ms : float;
  gdps : int;
  (* host side *)
  setup_s : float;
  create_us : float;  (** mean host time of one [create_object] *)
  host_s : float;  (** the measured phase *)
  words : float;  (** minor words allocated in the measured phase *)
  (* traced repetitions only *)
  spans : span list;
  timeline : Eden_obs.Timeline.t option;
  journal_dropped : int;
}

(* Everything a repetition produced in virtual time, in one string:
   two repetitions with one seed must give the same bytes. *)
let fingerprint r =
  let b = Buffer.create 4096 in
  let ints name a =
    Buffer.add_string b name;
    Array.iter (fun x -> Buffer.add_char b ' '; Buffer.add_string b (string_of_int x)) a;
    Buffer.add_char b '\n'
  in
  let pairs name l =
    Buffer.add_string b name;
    List.iter (fun (k, v) -> Printf.bprintf b " %s=%d" k v) l;
    Buffer.add_char b '\n'
  in
  ints "ops"
    [| r.attempted; r.completed; r.virt_ns; r.window_ns; r.window_ops; r.census; r.moves_tried; r.writes |];
  pairs "failed" r.failed;
  pairs "wrong" r.wrong;
  pairs "setup_failed" r.setup_failed;
  pairs "counts" (List.filter (fun (k, _) -> simulated k) r.d);
  ints "latency" r.latency;
  ints "moves" r.move_ns;
  ints "saves" r.save_ns;
  Buffer.contents b

let wall () = Unix.gettimeofday ()

let tally tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_tally tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* A cluster built, populated and warmed up, ready to measure. *)
type env = {
  cl : Cluster.t;
  caps : Capability.t array;
  init : Value.t array;  (** each object's initial representation *)
  rng : Splitmix.t;
  env_setup_s : float;
  env_create_us : float;
  env_setup_failed : (string * int) list;
}

(* Set-up.  [traced] turns on the kernel's profiling journal kinds and
   retains every journal event. *)
let setup spec ~seed ~traced =
  let host0 = wall () in
  let options, journal_cap =
    if traced then
      (* Large enough that nothing drops; the ring grows on demand. *)
      ({ Cluster.default_options with Cluster.use_profiling = true }, Some (1 lsl 40))
    else (Cluster.default_options, None)
  in
  let cl =
    Cluster.default ~seed:(Int64.of_int seed) ~options ?journal_cap ~n_nodes:spec.nodes ()
  in
  Cluster.register_type cl obj_type;
  let rng = Splitmix.create (Int64.of_int seed) in
  let n_obj = objects spec in
  let home i = i / spec.objects_per_node in
  let init =
    Array.init n_obj (fun _ ->
        match spec.kind with
        | Ckpt_write ->
          Value.Str (String.init repr_bytes (fun _ -> Char.chr (97 + Splitmix.int rng 26)))
        | Invoke_hot | Locate_churn -> Value.Unit)
  in
  let caps = Array.make n_obj None in
  let create_s = ref 0.0 in
  let setup_failed = Hashtbl.create 4 in
  let must label = function
    | Ok v -> Some v
    | Error e ->
      tally setup_failed (label ^ ":" ^ error_tag e);
      None
  in
  let _ =
    Cluster.in_process cl ~name:"bench-setup" (fun () ->
        let t0 = wall () in
        for i = 0 to n_obj - 1 do
          caps.(i) <-
            must "create" (Cluster.create_object cl ~node:(home i) ~type_name:"bench_obj" init.(i))
        done;
        create_s := wall () -. t0;
        if spec.kind = Ckpt_write then
          Array.iteri
            (fun i cap ->
              Option.iter
                (fun cap ->
                  let h = home i in
                  let sites =
                    Value.List
                      [ Value.Int ((h + 1) mod spec.nodes); Value.Int ((h + 2) mod spec.nodes) ]
                  in
                  ignore
                    (must "mirror" (Cluster.invoke cl ~from:h cap ~op:"mirror" [ sites ]));
                  ignore (must "save" (Cluster.invoke cl ~from:h cap ~op:"save" [])))
                cap)
            caps)
  in
  Cluster.run cl;
  (* invoke-hot warms up: every node touches every object once, so the
     measured calls find warm location hints. *)
  if spec.kind = Invoke_hot then begin
    for from = 0 to spec.nodes - 1 do
      ignore
        (Cluster.in_process cl ~name:"bench-warmup" (fun () ->
             Array.iter
               (Option.iter (fun cap ->
                    ignore (must "warmup" (Cluster.invoke cl ~from cap ~op:"get" []))))
               caps))
    done;
    Cluster.run cl
  end;
  let caps = Array.map (function Some c -> c | None -> failwith "object was not created") caps in
  {
    cl;
    caps;
    init;
    rng;
    env_setup_s = wall () -. host0;
    env_create_us = !create_s *. 1e6 /. float_of_int n_obj;
    env_setup_failed = sorted_tally setup_failed;
  }

(* The measured phase: run the clients until each has made its calls.
   [traced] also records benchmark spans. *)
let measure spec ~traced { cl; caps; init; rng; env_setup_s; env_create_us; env_setup_failed } =
  let eng = Cluster.engine cl in
  let n_obj = objects spec in
  let before = counts cl in
  let t_start = Engine.now eng in
  let lat = Buf.create () and saves = Buf.create () and moves = Buf.create () in
  let failed = Hashtbl.create 8 and wrong = Hashtbl.create 4 in
  let attempted = ref 0 and completed = ref 0 and writes = ref 0 in
  let moves_tried = ref 0 in
  let running = ref (clients spec) in
  let last_end = ref t_start in
  let window = ref None in
  let spans = ref [] and next_span = ref 0 in
  let fresh () =
    let id = !next_span in
    incr next_span;
    id
  in
  let span ~id ~parent ~client name t0 t1 =
    if traced then
      spans :=
        {
          sp_id = id;
          sp_parent = parent;
          sp_name = name;
          sp_client = client;
          sp_start = Time.to_ns t0;
          sp_end = Time.to_ns t1;
        }
        :: !spans
  in
  let call ~from cap op args =
    Cluster.invoke cl ~from ?timeout:spec.timeout ~retry:spec.retry cap ~op args
  in
  let client ~id ~from rng () =
    let payload =
      String.init spec.payload_bytes (fun _ -> Char.chr (97 + Splitmix.int rng 26))
    in
    let remote_target () =
      let other = Splitmix.int rng (spec.nodes - 1) in
      let node = if other >= from then other + 1 else other in
      (node * spec.objects_per_node) + Splitmix.int rng spec.objects_per_node
    in
    let echo i =
      match call ~from caps.(i) "work" [ Value.Str payload; Value.Int spec.work_us ] with
      | Ok [ Value.Str p ] when String.equal p payload -> Ok ()
      | Ok _ -> Error "echo_mismatch"
      | Error e -> Error (error_tag e)
    in
    let get i =
      match call ~from caps.(i) "get" [] with
      | Ok [ v ] when Value.equal v init.(i) || Value.equal v (Value.Blob repr_bytes) -> Ok ()
      | Ok _ -> Error "get_mismatch"
      | Error e -> Error (error_tag e)
    in
    (* One write op: [grow] then a synchronous [save], two child spans. *)
    let write ~parent i =
      let t0 = Engine.now eng in
      match call ~from caps.(i) "grow" [ Value.Int repr_bytes ] with
      | Error e -> Error (error_tag e)
      | Ok _ -> (
        let t1 = Engine.now eng in
        span ~id:(fresh ()) ~parent ~client:id "grow" t0 t1;
        let r = call ~from caps.(i) "save" [] in
        let t2 = Engine.now eng in
        span ~id:(fresh ()) ~parent ~client:id "save" t1 t2;
        match r with
        | Ok _ ->
          Buf.push saves (Time.to_ns (Time.diff t2 t1));
          Ok ()
        | Error e -> Error (error_tag e))
    in
    let rec loop k =
      if k < spec.ops_per_client then begin
        let t0 = Engine.now eng and op = fresh () in
        incr attempted;
        let name, outcome =
          match spec.kind with
          | Invoke_hot -> ("work", echo (remote_target ()))
          | Locate_churn -> ("work", echo (Splitmix.int rng n_obj))
          | Ckpt_write ->
            let i = Splitmix.int rng n_obj in
            if k mod (reads_per_write + 1) = reads_per_write then begin
              incr writes;
              ("write", write ~parent:op i)
            end
            else ("get", get i)
        in
        let t1 = Engine.now eng in
        last_end := t1;
        span ~id:op ~parent:(-1) ~client:id name t0 t1;
        (match outcome with
        | Ok () ->
          incr completed;
          Buf.push lat (Time.to_ns (Time.diff t1 t0))
        | Error (("echo_mismatch" | "get_mismatch") as check) ->
          (* A reply arrived but carried the wrong value. *)
          incr completed;
          Buf.push lat (Time.to_ns (Time.diff t1 t0));
          tally wrong check
        | Error tag -> tally failed tag);
        loop (k + 1)
      end
    in
    (try loop 0
     with Engine.Stalled_waiting ->
       (* The call in flight can never return. *)
       tally failed "hung");
    if !window = None then window := Some (Engine.now eng, !completed);
    decr running
  in
  let client_rng = Splitmix.split rng in
  for node = 0 to spec.nodes - 1 do
    for c = 0 to spec.clients_per_node - 1 do
      let id = (node * spec.clients_per_node) + c in
      let rng = Splitmix.split client_rng in
      ignore (Cluster.in_process cl ~name:"bench-client" (client ~id ~from:node rng))
    done
  done;
  if spec.kind = Locate_churn then begin
    let rng = Splitmix.split rng in
    ignore
      (Cluster.in_process cl ~name:"bench-mover" (fun () ->
           let rec loop () =
             Engine.delay move_period;
             if !running > 0 && Time.(Time.diff (Engine.now eng) !last_end < stall_window)
             then begin
               let i = Splitmix.int rng n_obj in
               let to_node =
                 match Cluster.where_is cl caps.(i) with
                 | Some h ->
                   let o = Splitmix.int rng (spec.nodes - 1) in
                   if o >= h then o + 1 else o
                 | None -> Splitmix.int rng spec.nodes
               in
               incr moves_tried;
               let t0 = Engine.now eng in
               (match Cluster.move cl caps.(i) ~to_node with
               | Ok () ->
                 let t1 = Engine.now eng in
                 Buf.push moves (Time.to_ns (Time.diff t1 t0));
                 span ~id:(fresh ()) ~parent:(-1) ~client:(clients spec) "move" t0 t1
               | Error _ -> ());
               loop ()
             end
           in
           loop ()))
  end;
  let words0 = Gc.minor_words () in
  let t0 = wall () in
  Cluster.run cl;
  let host_s = wall () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let virt_ns = Time.to_ns (Time.diff !last_end t_start) in
  let d = delta (counts cl) before in
  let census =
    List.fold_left ( + ) 0 (List.init spec.nodes (Cluster.active_objects cl))
  in
  let cpu_waits =
    List.fold_left
      (fun acc i -> Stats.merge acc (Eden_hw.Cpu.wait_stats (Eden_hw.Machine.cpu (Cluster.machine cl i))))
      (Stats.create ()) (List.init spec.nodes Fun.id)
  in
  let gdps =
    List.fold_left
      (fun acc i -> acc + Eden_hw.Cpu.gdps (Eden_hw.Machine.cpu (Cluster.machine cl i)))
      0 (List.init spec.nodes Fun.id)
  in
  {
    attempted = !attempted;
    completed = !completed;
    failed = sorted_tally failed;
    wrong = sorted_tally wrong;
    setup_failed = env_setup_failed;
    latency = Buf.sorted lat;
    virt_ns;
    window_ns = (match !window with Some (t, _) -> Time.to_ns (Time.diff t t_start) | None -> 0);
    window_ops = (match !window with Some (_, n) -> n | None -> 0);
    d;
    moves_tried = !moves_tried;
    move_ns = Buf.sorted moves;
    writes = !writes;
    save_ns = Buf.sorted saves;
    census;
    expected = n_obj + spec.nodes;
    cpu_wait_p99_ms =
      (if Stats.count cpu_waits = 0 then 0.0 else 1e3 *. Stats.percentile cpu_waits 99.0);
    gdps;
    setup_s = env_setup_s;
    create_us = env_create_us;
    host_s;
    words;
    spans = List.rev !spans;
    timeline = (if traced then Some (Cluster.timeline cl) else None);
    journal_dropped = Cluster.journal_dropped cl;
  }

let run spec ~seed ~traced = measure spec ~traced (setup spec ~seed ~traced)
