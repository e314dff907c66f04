(* Standalone layer probes: a fixed number of units through one layer's
   public functions, outside any cluster, reported as host ns and minor
   words per unit.  Words are deterministic; ns is the median of
   [rounds] repetitions. *)

open Eden_util
open Eden_sim

type result = { ns : float; words : float }

let rounds = 5

let measure ~units f =
  let samples =
    List.init rounds (fun _ ->
        Gc.compact ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        f ();
        let t1 = Unix.gettimeofday () in
        let w1 = Gc.minor_words () in
        ((t1 -. t0) *. 1e9 /. float_of_int units, (w1 -. w0) /. float_of_int units))
  in
  let ns = Stats.create () in
  List.iter (fun (x, _) -> Stats.add ns x) samples;
  { ns = Stats.median ns; words = snd (List.hd samples) }

(* Engine: half the events from [schedule] callbacks, half from
   processes that [spawn] and [delay]. *)
let engine_procs = 100
let engine_delays = 1_000
let engine_callbacks = 100_000
let engine_events = (engine_procs * (engine_delays + 1)) + engine_callbacks

let engine () =
  let run () =
    let eng = Engine.create () in
    for i = 1 to engine_callbacks do
      Engine.schedule eng ~after:(Time.ns i) ignore
    done;
    for _ = 1 to engine_procs do
      ignore
        (Engine.spawn eng (fun () ->
             for _ = 1 to engine_delays do
               Engine.delay (Time.us 1)
             done))
    done;
    Engine.run eng;
    if Engine.events_processed eng <> engine_events then
      failwith
        (Printf.sprintf "engine probe: %d events, expected %d"
           (Engine.events_processed eng) engine_events)
  in
  measure ~units:engine_events run

(* Lan: unicast frames of one size between two stations on an
   otherwise idle Ethernet. *)
let lan_frames = 20_000

let lan ~frame_bytes =
  let run () =
    let eng = Engine.create () in
    let lan = Eden_net.Lan.create eng in
    let a = Eden_net.Lan.attach lan ~name:"a" in
    let b = Eden_net.Lan.attach lan ~name:"b" in
    let got = ref 0 in
    Eden_net.Lan.on_receive b (fun _ -> incr got);
    for _ = 1 to lan_frames do
      Eden_net.Lan.send a ~dest:(Eden_net.Lan.Unicast (Eden_net.Lan.address b))
        ~bytes:frame_bytes ()
    done;
    Engine.run eng;
    if !got <> lan_frames then
      failwith (Printf.sprintf "lan probe: %d of %d frames delivered" !got lan_frames)
  in
  measure ~units:lan_frames run

(* Journal: [record] into a ring at the cluster's default capacity. *)
let journal_records = 200_000

let journal () =
  let kind = Eden_obs.Journal.Send { msg = "invoke"; dst = Some 1 } in
  let run () =
    let j = Eden_obs.Journal.create (Eden_obs.Journal.sink ()) ~node:0 ~cap:4096 in
    for i = 1 to journal_records do
      ignore (Eden_obs.Journal.record j ~at:(Time.ns i) kind)
    done;
    if Eden_obs.Journal.recorded j <> journal_records then failwith "journal probe: lost records"
  in
  measure ~units:journal_records run
