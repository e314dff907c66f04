(* Tests for the node-machine hardware models. *)

open Eden_util
open Eden_sim
open Eden_hw

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Costs *)

let test_costs_scale () =
  let c = Costs.default in
  let double = Costs.scale c 2.0 in
  check_int "request doubled"
    (2 * Time.to_ns c.Costs.invoke_request_cpu)
    (Time.to_ns double.Costs.invoke_request_cpu);
  check_int "per-byte doubled"
    (2 * Time.to_ns c.Costs.per_byte_copy)
    (Time.to_ns double.Costs.per_byte_copy);
  Alcotest.check_raises "bad factor" (Invalid_argument "Costs.scale")
    (fun () -> ignore (Costs.scale c 0.0))

let test_copy_cost () =
  let c = Costs.default in
  check_int "zero bytes" 0 (Time.to_ns (Costs.copy_cost c ~bytes:0));
  check_int "1KB"
    (1024 * Time.to_ns c.Costs.per_byte_copy)
    (Time.to_ns (Costs.copy_cost c ~bytes:1024));
  Alcotest.check_raises "negative"
    (Invalid_argument "Costs.copy_cost: negative size") (fun () ->
      ignore (Costs.copy_cost c ~bytes:(-1)))

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_accounting () =
  let m = Memory.create ~bytes:1_000 in
  check_int "capacity" 1_000 (Memory.capacity m);
  check_bool "reserve ok" true (Memory.reserve m 600 = Ok ());
  check_int "in use" 600 (Memory.in_use m);
  check_int "available" 400 (Memory.available m);
  check_bool "over-reserve fails" true
    (Memory.reserve m 500 = Error `Out_of_memory);
  check_int "failed reserve claims nothing" 600 (Memory.in_use m);
  Memory.release m 200;
  check_int "after release" 400 (Memory.in_use m);
  check_bool "fits now" true (Memory.reserve m 500 = Ok ());
  check_int "peak tracks high water" 900 (Memory.peak m)

let test_memory_errors () =
  let m = Memory.create ~bytes:100 in
  Alcotest.check_raises "negative reserve"
    (Invalid_argument "Memory.reserve: negative size") (fun () ->
      ignore (Memory.reserve m (-1)));
  Alcotest.check_raises "over-release"
    (Invalid_argument "Memory.release: more than in use") (fun () ->
      Memory.release m 1);
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Memory.create: capacity must be positive") (fun () ->
      ignore (Memory.create ~bytes:0))

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_cpu_parallelism () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~gdps:2 ~name:"cpu" in
  for _ = 1 to 6 do
    ignore (Engine.spawn eng (fun () -> Cpu.consume cpu (Time.ms 10)))
  done;
  Engine.run eng;
  (* 6 jobs of 10ms on 2 processors: 30ms makespan. *)
  check_int "makespan" 30_000_000 (Time.to_ns (Engine.now eng));
  check_int "jobs" 6 (Cpu.jobs_completed cpu);
  Alcotest.(check (float 1e-9))
    "fully utilised" 1.0
    (Cpu.utilisation cpu ~over:(Engine.now eng))

(* An uncontended job costs what the engine's delay costs (about 7
   words, see test_sim's "words per event") and nothing more: the
   semaphore hand-off and the wait sample allocate nothing. *)
let consume_words_bound = 7.5

let test_cpu_consume_words () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~gdps:1 ~name:"cpu" in
  let jobs = 20_000 in
  let run () =
    ignore
      (Engine.spawn eng (fun () ->
           for _ = 1 to jobs do
             Cpu.consume cpu (Time.us 1)
           done));
    Engine.run eng
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = (Gc.minor_words () -. before) /. float_of_int jobs in
  Printf.printf "minor words per uncontended Cpu.consume: %.2f\n" words;
  if words > consume_words_bound then
    Alcotest.failf "%.2f minor words per Cpu.consume, bound %.1f" words
      consume_words_bound

let test_cpu_zero_demand () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~gdps:1 ~name:"cpu" in
  let _ =
    Engine.spawn eng (fun () ->
        Cpu.consume cpu Time.zero;
        Cpu.consume cpu Time.zero)
  in
  Engine.run eng;
  check_int "no time passes" 0 (Time.to_ns (Engine.now eng));
  check_int "no jobs counted" 0 (Cpu.jobs_completed cpu)

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk_access_time () =
  let eng = Engine.create () in
  let d = Disk.create eng ~profile:Disk.small_profile ~name:"d" in
  (* seek 30ms + half rotation 8ms + 1KB at 500KB/s = 2.048ms *)
  check_int "1KB access" 40_048_000
    (Time.to_ns (Disk.access_time d ~bytes:1_024));
  check_int "0B access" 38_000_000 (Time.to_ns (Disk.access_time d ~bytes:0))

let test_disk_serialises () =
  let eng = Engine.create () in
  let d = Disk.create eng ~profile:Disk.small_profile ~name:"d" in
  for _ = 1 to 3 do
    ignore (Engine.spawn eng (fun () -> Disk.write d ~bytes:1_024))
  done;
  Engine.run eng;
  (* One arm: three 40.048ms accesses serialise. *)
  check_int "makespan" (3 * 40_048_000) (Time.to_ns (Engine.now eng));
  check_int "writes" 3 (Disk.writes d);
  check_int "bytes" (3 * 1_024) (Disk.bytes_written d);
  check_int "no reads" 0 (Disk.reads d)

let test_disk_counters () =
  let eng = Engine.create () in
  let d = Disk.create eng ~profile:Disk.server_profile ~name:"d" in
  let _ =
    Engine.spawn eng (fun () ->
        Disk.read d ~bytes:4_096;
        Disk.write d ~bytes:8_192)
  in
  Engine.run eng;
  check_int "reads" 1 (Disk.reads d);
  check_int "read bytes" 4_096 (Disk.bytes_read d);
  check_int "write bytes" 8_192 (Disk.bytes_written d)

(* ------------------------------------------------------------------ *)
(* Machine *)

let test_machine_configs () =
  let d = Machine.default_config ~name:"n" in
  check_int "default gdps" 2 d.Machine.gdps;
  check_int "default memory" 1_000_000 d.Machine.memory_bytes;
  let u = Machine.upgraded_config ~name:"n" in
  check_int "upgraded gdps" 4 u.Machine.gdps;
  check_int "upgraded memory" 2_500_000 u.Machine.memory_bytes;
  let f = Machine.file_server_config ~name:"n" in
  check_int "server disk" 300_000_000
    f.Machine.disk_profile.Disk.capacity_bytes

let test_machine_composition () =
  let eng = Engine.create () in
  let m = Machine.create eng (Machine.default_config ~name:"node7") in
  Alcotest.(check string) "name" "node7" (Machine.name m);
  check_int "cpu pool size" 2 (Cpu.gdps (Machine.cpu m));
  check_int "memory budget" 1_000_000 (Memory.capacity (Machine.memory m));
  Alcotest.(check string) "disk named" "node7.disk" (Disk.name (Machine.disk m))

let prop_memory_reserve_release_balances =
  QCheck.Test.make ~name:"memory reserve/release balances" ~count:200
    QCheck.(list (int_range 1 100))
    (fun sizes ->
      let m = Memory.create ~bytes:1_000_000 in
      let reserved =
        List.filter (fun s -> Memory.reserve m s = Ok ()) sizes
      in
      List.iter (Memory.release m) reserved;
      Memory.in_use m = 0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "eden_hw"
    [
      ( "costs",
        [
          Alcotest.test_case "scale" `Quick test_costs_scale;
          Alcotest.test_case "copy cost" `Quick test_copy_cost;
        ] );
      ( "memory",
        [
          Alcotest.test_case "accounting" `Quick test_memory_accounting;
          Alcotest.test_case "errors" `Quick test_memory_errors;
          qt prop_memory_reserve_release_balances;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "parallelism" `Quick test_cpu_parallelism;
          Alcotest.test_case "zero demand" `Quick test_cpu_zero_demand;
          Alcotest.test_case "uncontended consume words" `Quick
            test_cpu_consume_words;
        ] );
      ( "disk",
        [
          Alcotest.test_case "access time" `Quick test_disk_access_time;
          Alcotest.test_case "serialises" `Quick test_disk_serialises;
          Alcotest.test_case "counters" `Quick test_disk_counters;
        ] );
      ( "machine",
        [
          Alcotest.test_case "configs" `Quick test_machine_configs;
          Alcotest.test_case "composition" `Quick test_machine_composition;
        ] );
    ]
