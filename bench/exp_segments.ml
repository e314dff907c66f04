(* E15 — Figure 1's "other networks": a two-segment Eden joined by a
   store-and-forward bridge.  Location transparency holds across the
   bridge; the experiments quantify what crossing it costs and how
   frozen-object replication wins it back. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Common

let nodes_per_segment = 4

let two_building_cluster () =
  let n = 2 * nodes_per_segment in
  let configs =
    List.init n (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "n%d" i))
  in
  let cl =
    Cluster.create ~segments:[ nodes_per_segment; nodes_per_segment ]
      ~configs ()
  in
  Cluster.register_type cl bench_type;
  cl

let latency_table () =
  let t =
    Table.create
      ~title:"E15a  invocation latency: same segment vs across the bridge"
      ~columns:
        [
          ("payload", Table.Right);
          ("intra-segment", Table.Right);
          ("cross-segment", Table.Right);
          ("bridge penalty", Table.Right);
        ]
  in
  List.iter
    (fun payload ->
      let cl = two_building_cluster () in
      let intra, cross =
        drive cl (fun () ->
            let cap =
              must "create"
                (Cluster.create_object cl ~node:0 ~type_name:"bench_obj"
                   Value.Unit)
            in
            let args = [ Value.Blob payload; Value.Int 0 ] in
            let measure from =
              ignore (must "warm" (Cluster.invoke cl ~from cap ~op:"work" args));
              Stats.mean
                (mean_over cl ~warmup:1 ~iters:5 (fun () ->
                     must "work" (Cluster.invoke cl ~from cap ~op:"work" args)))
            in
            (measure 1, measure nodes_per_segment))
      in
      Table.add_row t
        [
          Printf.sprintf "%dB" payload;
          Printf.sprintf "%.2fms" (intra *. 1e3);
          Printf.sprintf "%.2fms" (cross *. 1e3);
          Printf.sprintf "+%.2fms" ((cross -. intra) *. 1e3);
        ])
    [ 0; 1_024; 4_096 ];
  Table.print t

(* Users on segment 1 hammering a shared object on segment 0, with and
   without a local replica of its frozen form. *)
let replication_table () =
  let t =
    Table.create
      ~title:
        "E15b  segment-1 burst against a frozen segment-0 object (40 x 2ms)"
      ~columns:
        [
          ("configuration", Table.Left);
          ("makespan", Table.Right);
          ("bridge messages", Table.Right);
        ]
  in
  List.iter
    (fun (label, replicate) ->
      let cl = two_building_cluster () in
      let makespan =
        drive cl (fun () ->
            let cap =
              must "create"
                (Cluster.create_object cl ~node:0 ~type_name:"bench_obj"
                   (Value.Blob 16_384))
            in
            must "freeze" (Cluster.freeze cl cap);
            if replicate then
              must "replicate"
                (Cluster.replicate cl cap ~to_node:nodes_per_segment);
            let d, () =
              timed cl (fun () ->
                  let ps =
                    List.concat_map
                      (fun k ->
                        let from = nodes_per_segment + k in
                        List.init 10 (fun _ ->
                            Cluster.invoke_async cl ~from cap ~op:"work"
                              [ Value.Blob 64; Value.Int 2_000 ]))
                      (List.init 4 Fun.id)
                  in
                  List.iter (fun p -> ignore (Promise.await p)) ps)
            in
            d)
      in
      Table.add_row t
        [
          label;
          Table.cell_time makespan;
          Table.cell_int (Eden_net.Internet.bridge_forwards (Cluster.network cl));
        ])
    [
      ("single copy across the bridge", false);
      ("replica on segment 1", true);
    ];
  Table.print t

let run () =
  heading "E15" "a two-segment Eden: the cost of the bridge (Fig. 1)";
  latency_table ();
  replication_table ();
  note
    "expected shape: the bridge adds its store-and-forward latency both \
     ways (~1ms round trip) on top of second-segment MAC time; one \
     replica on the far segment removes nearly all bridge traffic and \
     restores intra-segment service."
