(* A cluster monitor built on two paper features: node objects ("a node
   is an object", sec. 4.3) polled as heartbeats, and a gateway to a
   foreign machine (sec. 2) that the monitor uses as a line printer for
   its reports.

   Run with: dune exec examples/cluster_monitor.exe *)

open Eden_util
open Eden_sim
open Eden_kernel

let nodes = 5

let () =
  let cl = Cluster.default ~n_nodes:nodes () in
  let eng = Cluster.engine cl in
  (* The department line printer sits behind node 4's serial line. *)
  let printer = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        match
          Eden_workload.Gateway.install cl ~node:4 ~name:"lineprinter"
            ~service:(fun args ->
              (match args with
              | [ Value.Str line ] -> Printf.printf "%s\n" line
              | _ -> ());
              Ok [])
            ~round_trip:(Time.ms 120) ()
        with
        | Ok c -> printer := Some c
        | Error e -> failwith (Error.to_string e))
  in
  Cluster.run cl;
  let printer = Option.get !printer in

  (* The monitor process: poll every node object, print one status
     line per round through the gateway. *)
  let monitor_pid =
    Cluster.in_process cl ~name:"monitor" (fun () ->
        for round = 1 to 10 do
          Engine.delay (Time.ms 300);
          let cells =
            List.init nodes (fun i ->
                let target = Cluster.node_object cl i in
                match
                  Cluster.invoke cl ~from:0 ~timeout:(Time.ms 150) target
                    ~op:"info" []
                with
                | Ok [ Value.Int gdps; Value.Int _; Value.Int avail; Value.Int act ]
                  ->
                  Printf.sprintf "n%d UP(%dgdp,%dKfree,%dobj)" i gdps
                    (avail / 1000) act
                | Ok _ -> Printf.sprintf "n%d ???" i
                | Error _ -> Printf.sprintf "n%d DOWN" i)
          in
          let report =
            Printf.sprintf "[%8s] round %2d  %s"
              (Time.to_string (Engine.now eng))
              round
              (String.concat "  " cells)
          in
          match
            Cluster.invoke cl ~from:0 printer ~op:"request"
              [ Value.Str report ]
          with
          | Ok _ -> ()
          | Error e ->
            Printf.printf "(printer unavailable: %s)\n" (Error.to_string e)
        done)
  in
  ignore monitor_pid;
  (* Failure injection: node 2 dies during rounds 3-6. *)
  Engine.schedule_after eng (Time.ms 900) (fun () ->
      Cluster.crash_node cl 2);
  Engine.schedule_after eng (Time.ms 2000) (fun () ->
      Cluster.restart_node cl 2);
  Cluster.run cl;
  print_endline "cluster monitor demo complete"
