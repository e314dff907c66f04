(* E18 — the invocation hot path: the frozen-replica cache and unicast
   message coalescing.

   Part A is the paper's caching claim made concrete: a frozen 32KB
   object read remotely drags its whole representation across a 10Mb/s
   Ethernet on every invocation; with the cache, the first read pays
   the fetch and every later read is a local dispatch.

   Part B batches a burst of small kernel messages to one destination
   into shared wire transfers and measures what that buys in frames
   and makespan. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Common

let nodes = 3
let blob_bytes = 32_768

let cache_options =
  { Cluster.default_options with Cluster.use_replica_cache = true }

(* Mean simulated latency of [iters] reads of a frozen 32KB object on
   node 0, issued from node 1, with the replica cache on or off. *)
let read_experiment ~use_cache ~iters =
  let options = if use_cache then Some cache_options else None in
  let cl = fresh_cluster ?options ~n:nodes () in
  drive cl (fun () ->
      let cap =
        must "create"
          (Cluster.create_object cl ~node:0 ~type_name:"bench_obj"
             (Value.Blob blob_bytes))
      in
      ignore (must "freeze" (Cluster.freeze cl cap));
      (* First read: always remote.  With the cache on it also plants
         the frozen hint; give the background fetch (including the
         one-off type-code load on node 1) time to install the copy. *)
      let first, _ =
        timed cl (fun () ->
            must "get" (Cluster.invoke cl ~from:1 cap ~op:"get" []))
      in
      Engine.delay (Time.ms 300);
      let s = Stats.create () in
      for _ = 1 to iters do
        let d, _ =
          timed cl (fun () ->
              must "get" (Cluster.invoke cl ~from:1 cap ~op:"get" []))
        in
        Stats.add_time s d
      done;
      (Time.to_sec first, Stats.mean s))

(* A burst of small pings from node 0 to an object on node 1, with and
   without coalescing: the requests queue faster than the wire drains
   them, so with batching many ride one frame. *)
let burst_experiment ~coalesce ~burst =
  let coalesce = if coalesce then Some Transport.default_coalesce else None in
  let cl = fresh_cluster ?coalesce ~n:nodes () in
  let net = Cluster.network cl in
  drive cl (fun () ->
      let cap =
        must "create"
          (Cluster.create_object cl ~node:1 ~type_name:"bench_obj"
             (Value.Int 0))
      in
      (* Warm the location hint so the burst is pure request traffic. *)
      ignore (must "ping" (Cluster.invoke cl ~from:0 cap ~op:"ping" []));
      let d, () =
        timed cl (fun () ->
            let ps =
              List.init burst (fun _ ->
                  Cluster.invoke_async cl ~from:0 cap ~op:"ping" [])
            in
            List.iter (fun p -> ignore (Promise.await p)) ps)
      in
      ( d,
        Transport.frames_delivered net,
        Transport.coalesced_batches net,
        Transport.coalesced_messages net ))

(* [--trace-out FILE] (set by main.ml): export the cache-on run's
   assembled cross-node timeline as a Chrome trace. *)
let trace_out : string option ref = ref None

let emit_trace () =
  match (!trace_out, !Common.current_cluster) with
  | None, _ | _, None -> ()
  | Some file, Some cl ->
    let tl = Cluster.timeline cl in
    Eden_obs.Snapshot.write_string ~path:file
      (Eden_obs.Timeline.to_chrome_string tl);
    note "chrome trace of the cache-on run written to %s (%d events)" file
      (Eden_obs.Timeline.length tl)

let run () =
  heading "E18" "replica cache + message coalescing (the hot path)";
  let iters = 20 in
  let first_off, mean_off = read_experiment ~use_cache:false ~iters in
  let first_on, mean_on = read_experiment ~use_cache:true ~iters in
  emit_trace ();
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E18a  reading a frozen %dKB object from another node"
           (blob_bytes / 1024))
      ~columns:
        [
          ("replica cache", Table.Left);
          ("first read", Table.Right);
          ("later reads (mean)", Table.Right);
        ]
  in
  Table.add_row t
    [
      "off";
      Printf.sprintf "%.2fms" (first_off *. 1e3);
      Printf.sprintf "%.2fms" (mean_off *. 1e3);
    ];
  Table.add_row t
    [
      "on";
      Printf.sprintf "%.2fms" (first_on *. 1e3);
      Printf.sprintf "%.2fms" (mean_on *. 1e3);
    ];
  Table.print t;
  note "cache hit vs remote read: %.1fx cheaper (acceptance: >= 5x)"
    (mean_off /. mean_on);
  let burst = 200 in
  let mk_off, frames_off, _, _ = burst_experiment ~coalesce:false ~burst in
  let mk_on, frames_on, batches, members =
    burst_experiment ~coalesce:true ~burst
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E18b  %d-ping burst to one destination" burst)
      ~columns:
        [
          ("coalescing", Table.Left);
          ("makespan", Table.Right);
          ("wire frames", Table.Right);
          ("batches", Table.Right);
          ("batched msgs", Table.Right);
        ]
  in
  Table.add_row t
    [
      "off";
      Table.cell_time mk_off;
      Table.cell_int frames_off;
      Table.cell_int 0;
      Table.cell_int 0;
    ];
  Table.add_row t
    [
      "on";
      Table.cell_time mk_on;
      Table.cell_int frames_on;
      Table.cell_int batches;
      Table.cell_int members;
    ];
  Table.print t;
  note
    "expected shape: with coalescing the burst crosses in fewer, fuller \
     frames (batches amortise per-frame preamble); the makespan stays \
     roughly flat because serialised wire bytes, not frame count, bound \
     this burst.  Replies stay unbatched (one per request, paced by the \
     server)."
