(* Tests for the CSMA/CD LAN model. *)

open Eden_util
open Eden_sim
open Eden_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let quiet_params = Params.default

(* A LAN with [n] stations; returns the lan and the stations. *)
let make_lan ?(params = quiet_params) ?(n = 2) eng =
  let lan = Lan.create ~params eng in
  let sts =
    Array.init n (fun i -> Lan.attach lan ~name:(Printf.sprintf "s%d" i))
  in
  (lan, sts)

(* ------------------------------------------------------------------ *)
(* Params *)

let test_frame_time () =
  (* 100-byte payload -> 126 bytes on the wire -> 100.8 us at 10 Mb/s. *)
  check_int "100B payload" 100_800
    (Time.to_ns (Params.frame_time Params.default ~payload_bytes:100));
  (* Sub-minimum payloads are padded to 64 bytes -> 90 bytes on wire. *)
  check_int "padding" 72_000
    (Time.to_ns (Params.frame_time Params.default ~payload_bytes:1));
  check_int "zero padded too" 72_000
    (Time.to_ns (Params.frame_time Params.default ~payload_bytes:0))

let test_frame_time_invalid () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Params.frame_time: negative payload") (fun () ->
      ignore (Params.frame_time Params.default ~payload_bytes:(-1)));
  Alcotest.check_raises "too large"
    (Invalid_argument "Params.frame_time: payload exceeds max_frame_bytes")
    (fun () -> ignore (Params.frame_time Params.default ~payload_bytes:9_999))

let test_params_validate () =
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Params: bandwidth must be positive") (fun () ->
      Params.validate { Params.default with Params.bandwidth_bps = 0 })

(* ------------------------------------------------------------------ *)
(* Point-to-point delivery *)

let test_unloaded_latency () =
  let eng = Engine.create () in
  let lan, sts = make_lan eng in
  let arrived = ref Time.zero in
  Lan.on_receive sts.(1) (fun _ -> arrived := Engine.now eng);
  Lan.send sts.(0) ~dest:(Lan.Unicast 1) ~bytes:100 "hello";
  Engine.run eng;
  (* frame_time (100.8us) + propagation (5us) *)
  check_int "delivery time" 105_800 (Time.to_ns !arrived);
  let c = Lan.counters lan in
  check_int "sent" 1 c.Lan.frames_sent;
  check_int "delivered" 1 c.Lan.frames_delivered;
  check_int "no collisions" 0 c.Lan.collision_events;
  check_int "payload bytes" 100 c.Lan.payload_bytes_delivered

let test_payload_carried () =
  let eng = Engine.create () in
  let _, sts = make_lan eng in
  let got = ref None in
  Lan.on_receive sts.(1) (fun f -> got := Some f.Lan.payload);
  Lan.send sts.(0) ~dest:(Lan.Unicast 1) ~bytes:64 "payload-42";
  Engine.run eng;
  Alcotest.(check (option string)) "payload" (Some "payload-42") !got

let test_queued_frames_in_order () =
  let eng = Engine.create () in
  let _, sts = make_lan eng in
  let got = ref [] in
  Lan.on_receive sts.(1) (fun f -> got := f.Lan.payload :: !got);
  for i = 1 to 5 do
    Lan.send sts.(0) ~dest:(Lan.Unicast 1) ~bytes:64 i
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_broadcast () =
  let eng = Engine.create () in
  let _, sts = make_lan ~n:4 eng in
  let seen = Array.make 4 0 in
  Array.iter
    (fun st ->
      Lan.on_receive st (fun _ ->
          seen.(Lan.address st) <- seen.(Lan.address st) + 1))
    sts;
  Lan.send sts.(0) ~dest:Lan.Broadcast ~bytes:64 ();
  Engine.run eng;
  Alcotest.(check (array int)) "all but sender" [| 0; 1; 1; 1 |] seen

let test_send_validation () =
  let eng = Engine.create () in
  let _, sts = make_lan eng in
  Alcotest.check_raises "self" (Invalid_argument "Lan.send: destination is self")
    (fun () -> Lan.send sts.(0) ~dest:(Lan.Unicast 0) ~bytes:10 ());
  Alcotest.check_raises "no such" (Invalid_argument "Lan.send: no such station")
    (fun () -> Lan.send sts.(0) ~dest:(Lan.Unicast 9) ~bytes:10 ());
  Alcotest.check_raises "too big"
    (Invalid_argument "Lan.send: payload size out of range") (fun () ->
      Lan.send sts.(0) ~dest:(Lan.Unicast 1) ~bytes:100_000 ())

(* ------------------------------------------------------------------ *)
(* Contention *)

let test_collision_then_recovery () =
  let eng = Engine.create ~seed:7L () in
  let lan, sts = make_lan ~n:3 eng in
  let delivered = ref 0 in
  Lan.on_receive sts.(2) (fun _ -> incr delivered);
  (* Two stations transmit at the same instant: they must collide, back
     off, and both frames must still arrive. *)
  Lan.send sts.(0) ~dest:(Lan.Unicast 2) ~bytes:200 "a";
  Lan.send sts.(1) ~dest:(Lan.Unicast 2) ~bytes:200 "b";
  Engine.run eng;
  let c = Lan.counters lan in
  check_bool "collision happened" true (c.Lan.collision_events >= 1);
  check_int "both delivered" 2 !delivered;
  check_int "none dropped" 0 c.Lan.frames_dropped

let test_drop_after_max_attempts () =
  (* With max_attempts = 1, the first collision is fatal for both. *)
  let params = { Params.default with Params.max_attempts = 1 } in
  let eng = Engine.create () in
  let lan, sts = make_lan ~params ~n:3 eng in
  let delivered = ref 0 in
  Lan.on_receive sts.(2) (fun _ -> incr delivered);
  Lan.send sts.(0) ~dest:(Lan.Unicast 2) ~bytes:64 ();
  Lan.send sts.(1) ~dest:(Lan.Unicast 2) ~bytes:64 ();
  Engine.run eng;
  let c = Lan.counters lan in
  check_int "both dropped" 2 c.Lan.frames_dropped;
  check_int "none delivered" 0 !delivered

let test_carrier_sense_defers () =
  (* A station that starts while the medium is busy waits; no collision
     occurs and both frames arrive back to back. *)
  let eng = Engine.create () in
  let lan, sts = make_lan ~n:3 eng in
  let arrivals = ref [] in
  Lan.on_receive sts.(2) (fun f ->
      arrivals := (f.Lan.payload, Engine.now eng) :: !arrivals);
  Lan.send sts.(0) ~dest:(Lan.Unicast 2) ~bytes:1_000 "long";
  (* 1000B -> 1026B on wire -> 820.8us. Start the second frame mid-way. *)
  Engine.schedule_after eng (Time.us 400) (fun () ->
      Lan.send sts.(1) ~dest:(Lan.Unicast 2) ~bytes:64 "short");
  Engine.run eng;
  let c = Lan.counters lan in
  check_int "no collisions" 0 c.Lan.collision_events;
  match List.rev !arrivals with
  | [ ("long", t1); ("short", t2) ] ->
    check_int "long first" 825_800 (Time.to_ns t1);
    (* short starts when the medium goes idle at 820.8us, takes 72us. *)
    check_int "short after" (820_800 + 72_000 + 5_000) (Time.to_ns t2)
  | other ->
    Alcotest.failf "unexpected arrivals: %d" (List.length other)

let test_determinism () =
  let run_once () =
    let eng = Engine.create ~seed:99L () in
    let lan, sts = make_lan ~n:5 eng in
    let rng = Splitmix.create 5L in
    Array.iter (fun st -> Lan.on_receive st (fun _ -> ())) sts;
    for i = 0 to 199 do
      let src = i mod 5 in
      let dst = (src + 1 + Splitmix.int rng 4) mod 5 in
      Engine.schedule_after eng (Time.us (Splitmix.int rng 20_000)) (fun () ->
          Lan.send sts.(src) ~dest:(Lan.Unicast dst) ~bytes:200 ())
    done;
    Engine.run eng;
    let c = Lan.counters lan in
    (c.Lan.frames_delivered, c.Lan.collision_events, c.Lan.backoffs,
     Time.to_ns (Engine.now eng))
  in
  let a = run_once () and b = run_once () in
  check_bool "identical runs" true (a = b)

let test_saturation_throughput () =
  (* Offered load far above capacity: utilisation must stay below 1.0
     but above 0.5, and collisions must occur. *)
  let eng = Engine.create ~seed:3L () in
  let lan, sts = make_lan ~n:8 eng in
  Array.iter (fun st -> Lan.on_receive st (fun _ -> ())) sts;
  let horizon = Time.ms 200 in
  (* Each station queues frames continuously. *)
  Array.iteri
    (fun i st ->
      if i < 8 then
        for _ = 1 to 300 do
          Lan.send st ~dest:(Lan.Unicast ((i + 1) mod 8)) ~bytes:500 ()
        done)
    sts;
  Engine.run ~until:horizon eng;
  let u = Lan.utilisation lan ~over:horizon in
  check_bool "below capacity" true (u <= 1.0);
  check_bool "meaningful throughput" true (u > 0.5);
  let c = Lan.counters lan in
  check_bool "collisions under load" true (c.Lan.collision_events > 0)

let test_latency_stats_populated () =
  let eng = Engine.create () in
  let lan, sts = make_lan eng in
  Lan.on_receive sts.(1) (fun _ -> ());
  for _ = 1 to 10 do
    Lan.send sts.(0) ~dest:(Lan.Unicast 1) ~bytes:64 ()
  done;
  Engine.run eng;
  let s = Lan.latency_stats lan in
  check_int "ten samples" 10 (Stats.count s);
  (* The first frame sees no queueing: 72us + 5us. *)
  Alcotest.(check (float 1e-9)) "min latency" 77e-6 (Stats.min_value s)

(* A pinned schedule: six stations, seeded unicasts and broadcasts of
   random sizes at random instants, a dozen of them queued before the
   engine first runs, and some receivers replying from inside the
   delivery callback.  [max_attempts = 3] under this load drops frames.
   The digest covers every delivery as (payload, receiving station,
   instant), so any change to the MAC's event order, timing or random
   draws shows here; so does any change in the engine events it costs. *)
let test_golden_schedule () =
  let params = { Params.default with Params.max_attempts = 3 } in
  let eng = Engine.create ~seed:2024L () in
  let lan, sts = make_lan ~params ~n:6 eng in
  let log = Buffer.create 16_384 in
  Array.iter
    (fun st ->
      Lan.on_receive st (fun f ->
          let p = f.Lan.payload in
          Printf.bprintf log "%d>%d@%d;" p (Lan.address st)
            (Time.to_ns (Engine.now eng));
          match f.Lan.dest with
          | Lan.Unicast _ when p < 1_000 && p mod 5 = 0 ->
            Lan.send st ~dest:(Lan.Unicast f.Lan.src) ~bytes:64 (p + 1_000)
          | Lan.Unicast _ | Lan.Broadcast -> ()))
    sts;
  let rng = Splitmix.create 17L in
  let draw () =
    let src = Splitmix.int rng 6 in
    let bytes = Splitmix.int rng 1_519 in
    let dest =
      if Splitmix.int rng 5 = 0 then Lan.Broadcast
      else Lan.Unicast ((src + 1 + Splitmix.int rng 5) mod 6)
    in
    (src, dest, bytes)
  in
  for i = 0 to 11 do
    let src, dest, bytes = draw () in
    Lan.send sts.(src) ~dest ~bytes i
  done;
  for i = 12 to 299 do
    let src, dest, bytes = draw () in
    Engine.schedule_after eng (Time.us (Splitmix.int rng 150_000)) (fun () ->
        Lan.send sts.(src) ~dest ~bytes i)
  done;
  Engine.run eng;
  let c = Lan.counters lan in
  check_bool "some frames dropped" true (c.Lan.frames_dropped > 0);
  Alcotest.(check string)
    "delivery digest" "eb1655d970f6246b1e5f4c171f8978dc"
    (Digest.to_hex (Digest.string (Buffer.contents log)));
  Alcotest.(check (list int))
    "sent, broadcast, delivered, dropped, bytes, collisions, backoffs"
    [ 326; 57; 272; 162; 188_360; 233; 417 ]
    [
      c.Lan.frames_sent;
      c.Lan.frames_broadcast;
      c.Lan.frames_delivered;
      c.Lan.frames_dropped;
      c.Lan.payload_bytes_delivered;
      c.Lan.collision_events;
      c.Lan.backoffs;
    ];
  check_int "engine events" 3_001 (Engine.events_processed eng);
  check_int "final instant" 149_773_000 (Time.to_ns (Engine.now eng))

(* The MAC's own cost: minor words per unicast frame on an idle LAN,
   from [send] through delivery.  Two stations play ping-pong, each
   frame sent from the delivery of the one before, so the medium is
   idle whenever a frame starts.  Allocation is deterministic for a
   given build, so the figure is exact and the bound sits about 15%
   above it. *)
let words_per_frame_bound = 7.0

let test_words_per_frame () =
  let eng = Engine.create () in
  let _, sts = make_lan eng in
  let left = ref 0 in
  let back = [| Lan.Unicast 1; Lan.Unicast 0 |] in
  Array.iter
    (fun st ->
      Lan.on_receive st (fun _ ->
          if !left > 0 then begin
            decr left;
            Lan.send st ~dest:back.(Lan.address st) ~bytes:64 ()
          end))
    sts;
  let volley frames =
    left := frames - 1;
    Lan.send sts.(0) ~dest:back.(0) ~bytes:64 ();
    Engine.run eng
  in
  volley 1_000;
  let frames = 10_000 in
  let before = Gc.minor_words () in
  volley frames;
  let words = (Gc.minor_words () -. before) /. float_of_int frames in
  Printf.printf "minor words per unicast frame: %.1f\n" words;
  if words > words_per_frame_bound then
    Alcotest.failf "%.1f minor words per unicast frame, bound %.1f" words
      words_per_frame_bound

let prop_all_frames_accounted =
  QCheck.Test.make ~name:"sent = delivered + dropped (unicast)" ~count:25
    QCheck.(pair (int_range 2 6) (int_range 1 60))
    (fun (n, frames) ->
      let eng = Engine.create ~seed:11L () in
      let lan, sts = make_lan ~n eng in
      Array.iter (fun st -> Lan.on_receive st (fun _ -> ())) sts;
      let rng = Splitmix.create (Int64.of_int frames) in
      for _ = 1 to frames do
        let src = Splitmix.int rng n in
        let dst = (src + 1 + Splitmix.int rng (n - 1)) mod n in
        Engine.schedule_after eng (Time.us (Splitmix.int rng 50_000))
          (fun () -> Lan.send sts.(src) ~dest:(Lan.Unicast dst) ~bytes:128 ())
      done;
      Engine.run eng;
      let c = Lan.counters lan in
      c.Lan.frames_sent = frames
      && c.Lan.frames_delivered + c.Lan.frames_dropped = frames)

(* ------------------------------------------------------------------ *)
(* Msglink: fragmenting message transport *)

let msg_size (s : string) = String.length s

let make_link ?(n = 2) eng =
  let lan = Msglink.create_lan eng in
  let links =
    Array.init n (fun i ->
        Msglink.attach lan ~name:(Printf.sprintf "m%d" i) ~size:msg_size)
  in
  (lan, links)

let test_msglink_small_message () =
  let eng = Engine.create () in
  let _, links = make_link eng in
  let got = ref None in
  Msglink.on_message links.(1) (fun ~src msg -> got := Some (src, msg));
  Msglink.send links.(0) ~dst:1 "hello";
  Engine.run eng;
  Alcotest.(check (option (pair int string)))
    "delivered" (Some (0, "hello")) !got;
  check_int "one sent" 1 (Msglink.messages_sent links.(0));
  check_int "one received" 1 (Msglink.messages_received links.(1))

let test_msglink_fragmentation () =
  (* A message over the max frame size crosses as several frames and is
     reassembled into a single delivery. *)
  let eng = Engine.create () in
  let lan, links = make_link eng in
  let big = String.make 5_000 'x' in
  let got = ref 0 in
  Msglink.on_message links.(1) (fun ~src:_ msg ->
      if msg = big then incr got);
  Msglink.send links.(0) ~dst:1 big;
  Engine.run eng;
  check_int "delivered once" 1 !got;
  let frames = (Lan.counters lan).Lan.frames_delivered in
  (* ceil(5000 / 1518) = 4 fragments *)
  check_int "four fragments" 4 frames

let test_msglink_down_endpoint_drops () =
  let eng = Engine.create () in
  let _, links = make_link eng in
  let got = ref 0 in
  Msglink.on_message links.(1) (fun ~src:_ _ -> incr got);
  Msglink.set_up links.(1) false;
  Msglink.send links.(0) ~dst:1 "lost";
  Engine.run eng;
  check_int "nothing delivered" 0 !got;
  check_bool "fragment discarded" true
    (Msglink.fragments_discarded links.(1) >= 1);
  (* Back up: new messages flow again; the lost one stays lost. *)
  Msglink.set_up links.(1) true;
  Msglink.send links.(0) ~dst:1 "after";
  Engine.run eng;
  check_int "recovered" 1 !got

let test_msglink_down_sender_sends_nothing () =
  let eng = Engine.create () in
  let lan, links = make_link eng in
  Msglink.set_up links.(0) false;
  Msglink.send links.(0) ~dst:1 "never";
  Engine.run eng;
  check_int "no frames on the wire" 0 (Lan.counters lan).Lan.frames_sent

let test_msglink_broadcast () =
  let eng = Engine.create () in
  let _, links = make_link ~n:4 eng in
  let seen = Array.make 4 0 in
  Array.iteri
    (fun i link -> Msglink.on_message link (fun ~src:_ _ -> seen.(i) <- seen.(i) + 1))
    links;
  Msglink.broadcast links.(2) "to all";
  Engine.run eng;
  Alcotest.(check (array int)) "all but sender" [| 1; 1; 0; 1 |] seen

let test_msglink_self_send_rejected () =
  let eng = Engine.create () in
  let _, links = make_link eng in
  Alcotest.check_raises "self" (Invalid_argument "Msglink.send: destination is self")
    (fun () -> Msglink.send links.(0) ~dst:0 "loop")

let prop_msglink_all_sizes_roundtrip =
  QCheck.Test.make ~name:"messages of any size roundtrip" ~count:50
    QCheck.(int_range 1 20_000)
    (fun size ->
      let eng = Engine.create () in
      let _, links = make_link eng in
      let payload = String.make size 'y' in
      let ok = ref false in
      Msglink.on_message links.(1) (fun ~src:_ msg -> ok := msg = payload);
      Msglink.send links.(0) ~dst:1 payload;
      Engine.run eng;
      !ok)

(* ------------------------------------------------------------------ *)
(* Internet: bridged segments *)

let make_inet ?(segments = 2) ?(per_segment = 2) eng =
  let inet =
    Internet.create eng ~segments ~size:String.length
  in
  let eps =
    Array.init (segments * per_segment) (fun i ->
        Internet.attach inet ~segment:(i / per_segment)
          ~name:(Printf.sprintf "h%d" i))
  in
  (inet, eps)

let test_inet_same_segment () =
  let eng = Engine.create () in
  let _, eps = make_inet eng in
  let got = ref None in
  Internet.on_message eps.(1) (fun ~src msg -> got := Some (src, msg));
  Internet.send eps.(0) ~dst:1 "local";
  Engine.run eng;
  Alcotest.(check (option (pair int string)))
    "delivered" (Some (0, "local")) !got

let test_inet_cross_segment () =
  let eng = Engine.create () in
  let inet, eps = make_inet eng in
  let got = ref None and at = ref Time.zero in
  Internet.on_message eps.(2) (fun ~src msg ->
      got := Some (src, msg);
      at := Engine.now eng);
  Internet.send eps.(0) ~dst:2 "far away";
  Engine.run eng;
  Alcotest.(check (option (pair int string)))
    "delivered across the bridge" (Some (0, "far away")) !got;
  check_int "one bridge hop" 1 (Internet.bridge_forwards inet);
  (* Two MAC transmissions plus 500us store-and-forward: well over a
     single-segment delivery (~80us). *)
  check_bool "bridge latency paid" true (Time.to_ns !at > 600_000)

let test_inet_broadcast_spans_segments () =
  let eng = Engine.create () in
  let inet, eps = make_inet ~segments:3 ~per_segment:2 eng in
  let seen = Array.make 6 0 in
  Array.iteri
    (fun i ep -> Internet.on_message ep (fun ~src:_ _ -> seen.(i) <- seen.(i) + 1))
    eps;
  Internet.broadcast eps.(0) "hear ye";
  Engine.run eng;
  Alcotest.(check (array int))
    "everyone but the sender, exactly once" [| 0; 1; 1; 1; 1; 1 |] seen;
  (* One broadcast forward fans out to the other two segments. *)
  check_int "bridge re-emission" 1 (Internet.bridge_forwards inet)

let test_inet_addressing () =
  let eng = Engine.create () in
  let inet, eps = make_inet eng in
  check_int "global addresses dense" 3 (Internet.address eps.(3));
  check_int "segment of address" 1 (Internet.segment_of_address inet 2);
  check_int "segment of endpoint" 0 (Internet.segment_of_endpoint eps.(1));
  Alcotest.check_raises "unknown dst"
    (Invalid_argument "Internet.send: unknown destination") (fun () ->
      Internet.send eps.(0) ~dst:99 "ghost")

(* Regression: self-send used to raise Invalid_argument, which let a
   retry loop crash a node whose target had relocated onto it.  It now
   loopback-delivers without touching the wire. *)
let test_inet_loopback_self_send () =
  let eng = Engine.create () in
  let inet, eps = make_inet eng in
  let got = ref None in
  Internet.on_message eps.(0) (fun ~src msg -> got := Some (src, msg));
  Internet.send eps.(0) ~dst:0 "loop";
  Engine.run eng;
  Alcotest.(check (option (pair int string)))
    "delivered to self" (Some (0, "loop")) !got;
  check_int "nothing on the wire" 0 (Internet.frames_delivered inet)

let test_inet_single_segment_no_bridge () =
  let eng = Engine.create () in
  let inet, eps = make_inet ~segments:1 ~per_segment:3 eng in
  let got = ref 0 in
  Internet.on_message eps.(2) (fun ~src:_ _ -> incr got);
  Internet.send eps.(0) ~dst:2 "plain";
  Internet.broadcast eps.(1) "all";
  Engine.run eng;
  check_int "deliveries" 2 !got;
  check_int "no bridge traffic" 0 (Internet.bridge_forwards inet)

let test_inet_down_endpoint () =
  let eng = Engine.create () in
  let _, eps = make_inet eng in
  let got = ref 0 in
  Internet.on_message eps.(2) (fun ~src:_ _ -> incr got);
  Internet.set_up eps.(2) false;
  Internet.send eps.(0) ~dst:2 "lost";
  Engine.run eng;
  check_int "nothing delivered" 0 !got;
  Internet.set_up eps.(2) true;
  Internet.send eps.(0) ~dst:2 "found";
  Engine.run eng;
  check_int "recovered" 1 !got

(* ------------------------------------------------------------------ *)
(* Partitions and fault injection *)

let test_partition_drops_cross_segment () =
  let eng = Engine.create () in
  let inet, eps = make_inet eng in
  let got = ref 0 in
  Internet.on_message eps.(2) (fun ~src:_ _ -> incr got);
  Internet.set_partitioned inet 1 true;
  check_bool "partitioned" true (Internet.partitioned inet 1);
  Internet.send eps.(0) ~dst:2 "into the void";
  Engine.run eng;
  check_int "nothing crossed" 0 !got;
  check_int "accounted as a bridge drop" 1 (Internet.bridge_drops inet);
  (* Healing later must not resurrect the dropped frame. *)
  Internet.set_partitioned inet 1 false;
  Engine.run eng;
  check_int "still nothing: dropped, not delayed" 0 !got;
  Internet.send eps.(0) ~dst:2 "after heal";
  Engine.run eng;
  check_int "healed path delivers" 1 !got

let test_partition_kills_frames_in_flight () =
  let eng = Engine.create () in
  let inet, eps = make_inet eng in
  let got = ref 0 in
  Internet.on_message eps.(2) (fun ~src:_ _ -> incr got);
  Internet.send eps.(0) ~dst:2 "in flight";
  (* The frame reaches the bridge after ~80us of MAC time and sits in
     the 500us store-and-forward queue; cutting the destination segment
     at 300us must kill it there. *)
  Engine.schedule_after eng (Time.us 300) (fun () ->
      Internet.set_partitioned inet 1 true);
  Engine.run eng;
  check_int "queued frame dropped at the bridge" 0 !got;
  check_int "drop counted" 1 (Internet.bridge_drops inet);
  check_int "forward was claimed before the cut" 1
    (Internet.bridge_forwards inet)

let test_partition_leaves_local_traffic_alone () =
  let eng = Engine.create () in
  let inet, eps = make_inet eng in
  let got = ref 0 in
  Internet.on_message eps.(3) (fun ~src:_ _ -> incr got);
  Internet.set_partitioned inet 1 true;
  Internet.send eps.(2) ~dst:3 "next door";
  Engine.run eng;
  check_int "same-segment delivery unaffected" 1 !got;
  check_int "no bridge drops for local traffic" 0 (Internet.bridge_drops inet)

let test_partition_blocks_broadcast () =
  let eng = Engine.create () in
  let inet, eps = make_inet ~segments:3 ~per_segment:2 eng in
  let seen = Array.make 6 0 in
  Array.iteri
    (fun i ep -> Internet.on_message ep (fun ~src:_ _ -> seen.(i) <- seen.(i) + 1))
    eps;
  Internet.set_partitioned inet 2 true;
  Internet.broadcast eps.(0) "partial reach";
  Engine.run eng;
  Alcotest.(check (array int))
    "own segment and segment 1 only" [| 0; 1; 1; 1; 0; 0 |] seen;
  check_int "cut segment counted" 1 (Internet.bridge_drops inet)

let test_injector_drop () =
  let eng = Engine.create () in
  let inet, eps = make_inet ~segments:1 ~per_segment:3 eng in
  let got = ref 0 in
  Internet.on_message eps.(1) (fun ~src:_ _ -> incr got);
  Internet.set_fault_injector inet
    (Some
       (fun ~src ~dst ->
         if src = 0 && dst = Some 1 then Internet.Drop else Internet.Pass));
  Internet.send eps.(0) ~dst:1 "eaten";
  Internet.send eps.(2) ~dst:1 "spared";
  Engine.run eng;
  check_int "only the unfaulted link delivered" 1 !got;
  Internet.set_fault_injector inet None;
  Internet.send eps.(0) ~dst:1 "healed";
  Engine.run eng;
  check_int "hook removed" 2 !got

let test_injector_duplicate () =
  let eng = Engine.create () in
  let inet, eps = make_inet ~segments:1 ~per_segment:2 eng in
  let got = ref 0 in
  Internet.on_message eps.(1) (fun ~src:_ _ -> incr got);
  Internet.set_fault_injector inet
    (Some (fun ~src:_ ~dst:_ -> Internet.Duplicate));
  Internet.send eps.(0) ~dst:1 "twice";
  Engine.run eng;
  check_int "delivered twice" 2 !got

let test_injector_delay () =
  let eng = Engine.create () in
  let inet, eps = make_inet ~segments:1 ~per_segment:2 eng in
  let at = ref Time.zero in
  Internet.on_message eps.(1) (fun ~src:_ _ -> at := Engine.now eng);
  Internet.set_fault_injector inet
    (Some (fun ~src:_ ~dst:_ -> Internet.Delay (Time.ms 5)));
  Internet.send eps.(0) ~dst:1 "held back";
  Engine.run eng;
  check_bool "held for at least the injected delay" true
    (Time.to_ns !at >= 5_000_000)

(* ------------------------------------------------------------------ *)
(* Unicast coalescing *)

let make_inet_co ?(segments = 1) ?(per_segment = 3) ~coalesce eng =
  let inet = Internet.create eng ~segments ~size:String.length ~coalesce in
  let eps =
    Array.init (segments * per_segment) (fun i ->
        Internet.attach inet ~segment:(i / per_segment)
          ~name:(Printf.sprintf "h%d" i))
  in
  (inet, eps)

let co ?(bytes = 1024) ?(msgs = 8) ?(delay = Time.us 300) () =
  { Internet.co_max_bytes = bytes; co_max_msgs = msgs; co_max_delay = delay }

let test_co_flush_on_count () =
  let eng = Engine.create () in
  let inet, eps = make_inet_co ~coalesce:(co ~msgs:3 ()) eng in
  let got = ref [] in
  Internet.on_message eps.(1) (fun ~src:_ msg -> got := msg :: !got);
  List.iter (fun m -> Internet.send eps.(0) ~dst:1 m) [ "a"; "b"; "c" ];
  Engine.run eng;
  Alcotest.(check (list string)) "members in order" [ "a"; "b"; "c" ]
    (List.rev !got);
  check_int "one batched transfer" 1 (Internet.coalesced_batches inet);
  check_int "three members" 3 (Internet.coalesced_messages inet);
  (* The whole batch crossed as a single (padded) LAN frame. *)
  check_int "one frame on the wire" 1 (Internet.frames_delivered inet)

let test_co_flush_on_timeout () =
  (* A lone small message sits in the queue until the delay budget
     expires, then travels as a plain transfer (no batch counted). *)
  let eng = Engine.create () in
  let inet, eps = make_inet_co ~coalesce:(co ()) eng in
  let at = ref Time.zero in
  Internet.on_message eps.(1) (fun ~src:_ _ -> at := Engine.now eng);
  Internet.send eps.(0) ~dst:1 "lonely";
  Engine.run eng;
  (* 300us hold + 72us padded frame + 5us propagation. *)
  check_int "held for the delay budget" 377_000 (Time.to_ns !at);
  check_int "single message is not a batch" 0
    (Internet.coalesced_batches inet)

let test_co_budget_vs_timeout_ordering () =
  (* A count-budget flush at t=0 and a later timer flush must preserve
     per-destination FIFO order across both transfers. *)
  let eng = Engine.create () in
  let _, eps = make_inet_co ~coalesce:(co ~msgs:3 ()) eng in
  let got = ref [] in
  Internet.on_message eps.(1) (fun ~src:_ msg -> got := msg :: !got);
  List.iter (fun m -> Internet.send eps.(0) ~dst:1 m) [ "a"; "b"; "c" ];
  Engine.schedule_after eng (Time.us 100) (fun () ->
      Internet.send eps.(0) ~dst:1 "d";
      Internet.send eps.(0) ~dst:1 "e");
  Engine.run eng;
  Alcotest.(check (list string))
    "budget flush first, timer flush after" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !got)

let test_co_oversize_flushes_then_travels_alone () =
  (* An oversize message acts as its own barrier: the queue flushes
     first so FIFO order holds, then the big message goes unbatched. *)
  let eng = Engine.create () in
  let inet, eps = make_inet_co ~coalesce:(co ~bytes:64 ~delay:(Time.ms 10) ()) eng in
  let got = ref [] in
  Internet.on_message eps.(1) (fun ~src:_ msg ->
      got := String.length msg :: !got);
  Internet.send eps.(0) ~dst:1 "aa";
  Internet.send eps.(0) ~dst:1 "bb";
  Internet.send eps.(0) ~dst:1 (String.make 70 'X');
  Engine.run eng;
  Alcotest.(check (list int)) "queue first, oversize after" [ 2; 2; 70 ]
    (List.rev !got);
  check_int "only the small pair batched" 1 (Internet.coalesced_batches inet);
  check_int "two members" 2 (Internet.coalesced_messages inet)

let test_co_broadcast_barrier () =
  (* Queued unicasts cannot be overtaken by a later broadcast. *)
  let eng = Engine.create () in
  let _, eps = make_inet_co ~coalesce:(co ~delay:(Time.ms 10) ()) eng in
  let got = ref [] in
  Internet.on_message eps.(1) (fun ~src:_ msg -> got := msg :: !got);
  Internet.send eps.(0) ~dst:1 "queued";
  Internet.broadcast eps.(0) "all stations";
  Engine.run eng;
  Alcotest.(check (list string))
    "unicast flushed ahead of the broadcast" [ "queued"; "all stations" ]
    (List.rev !got)

let test_co_loopback_bypasses_queue () =
  let eng = Engine.create () in
  let inet, eps = make_inet_co ~coalesce:(co ~delay:(Time.ms 10) ()) eng in
  let got = ref 0 in
  Internet.on_message eps.(0) (fun ~src:_ _ -> incr got);
  Internet.send eps.(0) ~dst:0 "to self";
  Engine.run eng;
  check_int "delivered immediately" 1 !got;
  check_int "nothing on the wire" 0 (Internet.frames_delivered inet);
  check_int "not counted as coalesced" 0 (Internet.coalesced_messages inet)

let test_co_partition_cuts_whole_batch () =
  (* A batch crossing the bridge when a partition lands loses every
     member, and the bridge counts one envelope, not one per member. *)
  let eng = Engine.create () in
  let inet, eps =
    make_inet_co ~segments:2 ~per_segment:2 ~coalesce:(co ~msgs:2 ()) eng
  in
  let got = ref 0 in
  Internet.on_message eps.(2) (fun ~src:_ _ -> incr got);
  Internet.send eps.(0) ~dst:2 "one";
  Internet.send eps.(0) ~dst:2 "two";
  (* Budget flush at t=0; the envelope reaches the bridge after ~80us
     of MAC time and sits in the 500us store-and-forward queue. *)
  Engine.schedule_after eng (Time.us 300) (fun () ->
      Internet.set_partitioned inet 1 true);
  Engine.run eng;
  check_int "no member survived" 0 !got;
  check_int "one envelope dropped" 1 (Internet.bridge_drops inet);
  check_int "batch was counted at flush" 1 (Internet.coalesced_batches inet)

let test_co_injector_drops_whole_batch () =
  (* The fault injector sees one decision per wire transfer; Drop on a
     batch loses all of its members. *)
  let eng = Engine.create () in
  let inet, eps = make_inet_co ~coalesce:(co ~msgs:3 ()) eng in
  let got = ref 0 in
  Internet.on_message eps.(1) (fun ~src:_ _ -> incr got);
  let decisions = ref 0 in
  Internet.set_fault_injector inet
    (Some
       (fun ~src:_ ~dst:_ ->
         incr decisions;
         Internet.Drop));
  List.iter (fun m -> Internet.send eps.(0) ~dst:1 m) [ "a"; "b"; "c" ];
  Engine.run eng;
  check_int "all members lost" 0 !got;
  check_int "one verdict for the whole batch" 1 !decisions

let test_co_event_hook () =
  (* The one wire hook's contract: a flush reports its departure, then
     a Delay verdict on the same transfer reports the hold, both with
     the payloads in FIFO order and before anything is delivered.  A
     lone message released by the timer still reports a departure. *)
  let eng = Engine.create () in
  let inet, eps = make_inet_co ~coalesce:(co ~msgs:3 ()) eng in
  let log = ref [] in
  let note s = log := s :: !log in
  let dst_s = function Some d -> string_of_int d | None -> "*" in
  Internet.on_message eps.(1) (fun ~src:_ msg -> note ("deliver " ^ msg));
  Internet.set_fault_injector inet
    (Some (fun ~src:_ ~dst:_ -> Internet.Delay (Time.ms 1)));
  Internet.set_event_hook inet
    (Some
       (function
       | Internet.Ev_depart { src; dst; msgs; items } ->
         note
           (Printf.sprintf "depart %d->%d %d [%s]" src dst msgs
              (String.concat ";" items))
       | Internet.Ev_hold { src; dst; msgs; by; items } ->
         note
           (Printf.sprintf "hold %d->%s %d by %s [%s]" src (dst_s dst) msgs
              (Time.to_string by) (String.concat ";" items))
       | Internet.Ev_drop _ -> note "drop"
       | Internet.Ev_duplicate _ -> note "duplicate"));
  List.iter (fun m -> Internet.send eps.(0) ~dst:1 m) [ "a"; "b"; "c" ];
  Engine.run eng;
  Internet.send eps.(0) ~dst:1 "lone";
  Engine.run eng;
  Alcotest.(check (list string))
    "departure, hold, then delivery"
    [
      "depart 0->1 3 [a;b;c]";
      "hold 0->1 3 by 1.000ms [a;b;c]";
      "deliver a";
      "deliver b";
      "deliver c";
      "depart 0->1 1 [lone]";
      "hold 0->1 1 by 1.000ms [lone]";
      "deliver lone";
    ]
    (List.rev !log)

let test_co_down_sender_discards_queue () =
  let eng = Engine.create () in
  let inet, eps = make_inet_co ~coalesce:(co ~delay:(Time.ms 1) ()) eng in
  let got = ref 0 in
  Internet.on_message eps.(1) (fun ~src:_ _ -> incr got);
  Internet.send eps.(0) ~dst:1 "doomed";
  Internet.send eps.(0) ~dst:1 "also doomed";
  Internet.set_up eps.(0) false;
  Engine.run eng;
  check_int "queued messages discarded" 0 !got;
  check_int "nothing on the wire" 0 (Internet.frames_delivered inet);
  (* Back up: later traffic flows; the discarded queue stays lost. *)
  Internet.set_up eps.(0) true;
  Internet.send eps.(0) ~dst:1 "fresh";
  Engine.run eng;
  check_int "recovered" 1 !got

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "eden_net"
    [
      ( "params",
        [
          Alcotest.test_case "frame time" `Quick test_frame_time;
          Alcotest.test_case "frame time invalid" `Quick
            test_frame_time_invalid;
          Alcotest.test_case "validate" `Quick test_params_validate;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "unloaded latency" `Quick test_unloaded_latency;
          Alcotest.test_case "payload carried" `Quick test_payload_carried;
          Alcotest.test_case "queue order" `Quick test_queued_frames_in_order;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "validation" `Quick test_send_validation;
        ] );
      ( "contention",
        [
          Alcotest.test_case "collision recovery" `Quick
            test_collision_then_recovery;
          Alcotest.test_case "drop after max attempts" `Quick
            test_drop_after_max_attempts;
          Alcotest.test_case "carrier sense" `Quick test_carrier_sense_defers;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "saturation" `Quick test_saturation_throughput;
          Alcotest.test_case "latency stats" `Quick
            test_latency_stats_populated;
          Alcotest.test_case "golden schedule" `Quick test_golden_schedule;
          Alcotest.test_case "words per frame" `Quick test_words_per_frame;
          qt prop_all_frames_accounted;
        ] );
      ( "msglink",
        [
          Alcotest.test_case "small message" `Quick test_msglink_small_message;
          Alcotest.test_case "fragmentation" `Quick test_msglink_fragmentation;
          Alcotest.test_case "down endpoint" `Quick
            test_msglink_down_endpoint_drops;
          Alcotest.test_case "down sender" `Quick
            test_msglink_down_sender_sends_nothing;
          Alcotest.test_case "broadcast" `Quick test_msglink_broadcast;
          Alcotest.test_case "self send" `Quick test_msglink_self_send_rejected;
          qt prop_msglink_all_sizes_roundtrip;
        ] );
      ( "internet",
        [
          Alcotest.test_case "same segment" `Quick test_inet_same_segment;
          Alcotest.test_case "cross segment" `Quick test_inet_cross_segment;
          Alcotest.test_case "broadcast spans segments" `Quick
            test_inet_broadcast_spans_segments;
          Alcotest.test_case "addressing" `Quick test_inet_addressing;
          Alcotest.test_case "loopback self send" `Quick
            test_inet_loopback_self_send;
          Alcotest.test_case "single segment" `Quick
            test_inet_single_segment_no_bridge;
          Alcotest.test_case "down endpoint" `Quick test_inet_down_endpoint;
        ] );
      ( "faults",
        [
          Alcotest.test_case "partition drops cross-segment" `Quick
            test_partition_drops_cross_segment;
          Alcotest.test_case "partition kills frames in flight" `Quick
            test_partition_kills_frames_in_flight;
          Alcotest.test_case "partition spares local traffic" `Quick
            test_partition_leaves_local_traffic_alone;
          Alcotest.test_case "partition blocks broadcast" `Quick
            test_partition_blocks_broadcast;
          Alcotest.test_case "injector drop" `Quick test_injector_drop;
          Alcotest.test_case "injector duplicate" `Quick
            test_injector_duplicate;
          Alcotest.test_case "injector delay" `Quick test_injector_delay;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "flush on count budget" `Quick
            test_co_flush_on_count;
          Alcotest.test_case "flush on timeout" `Quick
            test_co_flush_on_timeout;
          Alcotest.test_case "budget vs timeout ordering" `Quick
            test_co_budget_vs_timeout_ordering;
          Alcotest.test_case "oversize bypass" `Quick
            test_co_oversize_flushes_then_travels_alone;
          Alcotest.test_case "broadcast barrier" `Quick
            test_co_broadcast_barrier;
          Alcotest.test_case "loopback bypasses queue" `Quick
            test_co_loopback_bypasses_queue;
          Alcotest.test_case "partition cuts whole batch" `Quick
            test_co_partition_cuts_whole_batch;
          Alcotest.test_case "injector drops whole batch" `Quick
            test_co_injector_drops_whole_batch;
          Alcotest.test_case "down sender discards queue" `Quick
            test_co_down_sender_discards_queue;
          Alcotest.test_case "one hook: depart, hold, deliver" `Quick
            test_co_event_hook;
        ] );
    ]
