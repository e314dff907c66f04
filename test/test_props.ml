(* Round-trip property tests over the kernel wire codecs and the fault
   plan text format, on the {!Prop} harness: 100 seeds per property,
   each seed generating one structured value, encoding it and decoding
   it back.  Everything here is pure — no engine, no cluster. *)

open Eden_kernel
module Splitmix = Eden_util.Splitmix
module Time = Eden_util.Time
module Plan = Eden_fault.Plan

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_name rng =
  Name.make ~birth_node:(Splitmix.int rng 64) ~serial:(Splitmix.int rng 100_000)

let gen_rights rng =
  match Rights.of_bits (Splitmix.int rng (Rights.to_bits Rights.all + 1)) with
  | Some r -> r
  | None -> assert false (* every value below the mask is valid *)

let gen_cap rng = Capability.make (gen_name rng) (gen_rights rng)
let gen_string = Prop.Gen.string ~max_len:10

let rec gen_value depth rng =
  match Splitmix.int rng (if depth <= 0 then 6 else 8) with
  | 0 -> Value.Unit
  | 1 -> Value.Bool (Splitmix.bool rng)
  | 2 -> Value.Int (Splitmix.int_in rng (-100_000) 100_000)
  | 3 -> Value.Str (gen_string rng)
  | 4 -> Value.Cap (gen_cap rng)
  | 5 -> Value.Blob (Splitmix.int rng 65_536)
  | 6 ->
    Value.List
      (List.init (Splitmix.int rng 4) (fun _ -> gen_value (depth - 1) rng))
  | _ -> Value.Pair (gen_value (depth - 1) rng, gen_value (depth - 1) rng)

let gen_error rng =
  match Splitmix.int rng 12 with
  | 0 -> Error.No_such_object
  | 1 -> Error.No_such_operation (gen_string rng)
  | 2 -> Error.Rights_violation (gen_string rng)
  | 3 -> Error.Timeout
  | 4 -> Error.Object_crashed
  | 5 -> Error.Node_down
  | 6 -> Error.Out_of_memory
  | 7 -> Error.Frozen_immutable
  | 8 -> Error.Bad_arguments (gen_string rng)
  | 9 -> Error.User_error (gen_string rng)
  | 10 -> Error.Move_refused (gen_string rng)
  | _ -> Error.Disk_failed

let gen_req rng =
  { Message.origin = Splitmix.int rng 16; seq = Splitmix.int rng 10_000 }

let gen_result rng : Api.invoke_result =
  if Splitmix.bool rng then
    Ok (List.init (Splitmix.int rng 3) (fun _ -> gen_value 2 rng))
  else Error (gen_error rng)

let gen_reliability rng =
  match Splitmix.int rng 3 with
  | 0 -> Reliability.Local
  | 1 -> Reliability.Remote (Splitmix.int rng 8)
  | _ ->
    Reliability.Mirrored
      (List.init (1 + Splitmix.int rng 3) (fun _ -> Splitmix.int rng 8))

let gen_residence rng =
  match Splitmix.int rng 3 with
  | 0 -> Message.Res_active
  | 1 -> Message.Res_passive
  | _ -> Message.Res_replica

let gen_node rng = Splitmix.int rng 16
let gen_version rng = Splitmix.int rng 1_000

let gen_delta rng =
  match Splitmix.int rng 3 with
  | 0 -> Delta.Unchanged
  | 1 ->
    let len = Splitmix.int rng 6 in
    let edits =
      List.init (Splitmix.int rng (len + 1)) (fun _ ->
          (Splitmix.int rng (max len 1), gen_value 2 rng))
    in
    Delta.Edits { len; edits }
  | _ -> Delta.Whole (gen_value 2 rng)

let gen_message rng : Message.t =
  match Splitmix.int rng 26 with
  | 0 ->
    Message.Inv_request
      {
        inv_id = gen_req rng;
        target = gen_name rng;
        op = gen_string rng;
        args = List.init (Splitmix.int rng 3) (fun _ -> gen_value 2 rng);
        presented = gen_rights rng;
        reply_to = gen_node rng;
        hops = Splitmix.int rng 4;
        may_activate = Splitmix.bool rng;
      }
  | 1 ->
    Message.Inv_reply
      {
        inv_id = gen_req rng;
        result = gen_result rng;
        frozen_hint = Splitmix.bool rng;
      }
  | 2 -> Message.Inv_nack { inv_id = gen_req rng; target = gen_name rng }
  | 3 -> Message.Hint_update { target = gen_name rng; at_node = gen_node rng }
  | 4 ->
    Message.Locate_request
      { req_id = gen_req rng; target = gen_name rng; reply_to = gen_node rng }
  | 5 ->
    Message.Locate_reply
      {
        req_id = gen_req rng;
        target = gen_name rng;
        at_node = gen_node rng;
        residence = gen_residence rng;
        version = gen_version rng;
      }
  | 6 ->
    Message.Create_request
      {
        req_id = gen_req rng;
        type_name = gen_string rng;
        init = gen_value 2 rng;
        reply_to = gen_node rng;
      }
  | 7 ->
    Message.Create_reply
      {
        req_id = gen_req rng;
        result =
          (if Splitmix.bool rng then Ok (gen_cap rng)
           else Error (gen_error rng));
      }
  | 8 ->
    Message.Move_transfer
      {
        target = gen_name rng;
        type_name = gen_string rng;
        repr = gen_value 2 rng;
        frozen = Splitmix.bool rng;
        reliability = gen_reliability rng;
        from_node = gen_node rng;
        transfer_id = gen_req rng;
      }
  | 9 ->
    Message.Move_ack
      { transfer_id = gen_req rng; accepted = Splitmix.bool rng }
  | 10 ->
    Message.Ckpt_write
      {
        req_id = gen_req rng;
        target = gen_name rng;
        type_name = gen_string rng;
        repr = gen_value 2 rng;
        version = gen_version rng;
        reliability = gen_reliability rng;
        frozen = Splitmix.bool rng;
        reply_to = gen_node rng;
      }
  | 11 -> Message.Ckpt_ack { req_id = gen_req rng; ok = Splitmix.bool rng }
  | 12 -> Message.Ckpt_delete { target = gen_name rng }
  | 13 ->
    Message.Ckpt_mark
      {
        target = gen_name rng;
        passive = Splitmix.bool rng;
        version = gen_version rng;
      }
  | 14 ->
    Message.Replica_install
      {
        target = gen_name rng;
        type_name = gen_string rng;
        repr = gen_value 2 rng;
        transfer_id = gen_req rng;
        from_node = gen_node rng;
      }
  | 15 ->
    Message.Replica_ack
      { transfer_id = gen_req rng; accepted = Splitmix.bool rng }
  | 16 -> Message.Destroy_notice { target = gen_name rng }
  | 17 ->
    Message.Cache_fetch
      { req_id = gen_req rng; target = gen_name rng; reply_to = gen_node rng }
  | 18 ->
    Message.Cache_data
      {
        req_id = gen_req rng;
        target = gen_name rng;
        payload =
          (if Splitmix.bool rng then Some (gen_string rng, gen_value 2 rng)
           else None);
      }
  | 19 -> Message.Cache_invalidate { target = gen_name rng }
  | 20 -> Message.Cancel { inv_id = gen_req rng; target = gen_name rng }
  | 22 ->
    Message.Dir_put
      {
        req_id = gen_req rng;
        target = gen_name rng;
        home = gen_node rng;
        replicas = List.init (Splitmix.int rng 4) (fun _ -> gen_node rng);
        lease = Splitmix.int rng 1_000_000_000;
      }
  | 23 ->
    Message.Dir_get
      { req_id = gen_req rng; target = gen_name rng; reply_to = gen_node rng }
  | 24 ->
    (* home = -1 is the shard-miss reply, a live wire shape. *)
    Message.Dir_nack
      {
        req_id = gen_req rng;
        target = gen_name rng;
        home = (if Splitmix.bool rng then gen_node rng else -1);
      }
  | 25 ->
    Message.Epoch_announce
      {
        epoch = Splitmix.int rng 1_000;
        members = List.init (Splitmix.int rng 6) (fun _ -> gen_node rng);
      }
  | _ ->
    Message.Ckpt_delta
      {
        req_id = gen_req rng;
        target = gen_name rng;
        type_name = gen_string rng;
        delta = gen_delta rng;
        base_version = gen_version rng;
        version = gen_version rng;
        reliability = gen_reliability rng;
        frozen = Splitmix.bool rng;
        reply_to = gen_node rng;
      }

(* ------------------------------------------------------------------ *)
(* Properties *)

let name_roundtrip =
  Prop.case ~name:"Name.of_string (to_string n) = n" ~base:0xA110_0001L
    ~gen:gen_name ~show:Name.to_string (fun n ->
      match Name.of_string (Name.to_string n) with
      | Some n' when Name.equal n n' -> Ok ()
      | Some n' -> Error (Printf.sprintf "decoded to %s" (Name.to_string n'))
      | None -> Error "failed to parse")

(* The journals intern these strings and the pinned bundle digests
   hash them, so the allocation-lean renderings must keep the bytes of
   the [Format] / [Printf] ones they replaced, kept here as the
   reference. *)
let name_matches_pp =
  Prop.case ~name:"Name.to_string n = asprintf \"%a\" Name.pp n"
    ~base:0xA110_000BL ~gen:gen_name ~show:Name.to_string (fun n ->
      let reference = Format.asprintf "%a" Name.pp n in
      if String.equal (Name.to_string n) reference then Ok ()
      else Error (Printf.sprintf "reference renders %S" reference))

let printf_describe : Message.t -> string = function
  | Inv_request { target; op; _ } ->
    Printf.sprintf "inv_request %s.%s" (Name.to_string target) op
  | Inv_reply { inv_id; _ } -> Printf.sprintf "inv_reply n%d" inv_id.origin
  | Inv_nack { target; _ } -> "inv_nack " ^ Name.to_string target
  | Hint_update { target; at_node } ->
    Printf.sprintf "hint %s@%d" (Name.to_string target) at_node
  | Locate_request { target; _ } -> "locate? " ^ Name.to_string target
  | Locate_reply { target; at_node; _ } ->
    Printf.sprintf "locate! %s@%d" (Name.to_string target) at_node
  | Create_request { type_name; _ } -> "create " ^ type_name
  | Create_reply _ -> "create_reply"
  | Move_transfer { target; _ } -> "move " ^ Name.to_string target
  | Move_ack _ -> "move_ack"
  | Ckpt_write { target; version; _ } ->
    Printf.sprintf "ckpt_write %s v%d" (Name.to_string target) version
  | Ckpt_delta { target; base_version; version; delta; _ } ->
    Printf.sprintf "ckpt_delta %s v%d->v%d (%s)" (Name.to_string target)
      base_version version (Delta.describe delta)
  | Ckpt_ack _ -> "ckpt_ack"
  | Ckpt_delete { target } -> "ckpt_delete " ^ Name.to_string target
  | Ckpt_mark { target; passive; version } ->
    Printf.sprintf "ckpt_mark %s passive=%b v%d" (Name.to_string target)
      passive version
  | Replica_install { target; _ } -> "replica " ^ Name.to_string target
  | Replica_ack _ -> "replica_ack"
  | Destroy_notice { target } -> "destroy " ^ Name.to_string target
  | Cache_fetch { target; _ } -> "cache? " ^ Name.to_string target
  | Cache_data { target; payload; _ } ->
    Printf.sprintf "cache! %s %s" (Name.to_string target)
      (if payload = None then "miss" else "hit")
  | Cache_invalidate { target } -> "cache_inval " ^ Name.to_string target
  | Cancel { target; _ } -> "cancel " ^ Name.to_string target
  | Dir_put { target; home; _ } ->
    Printf.sprintf "dir_put %s@%d" (Name.to_string target) home
  | Dir_get { target; _ } -> "dir? " ^ Name.to_string target
  | Dir_nack { target; _ } -> "dir_nack " ^ Name.to_string target
  | Epoch_announce { epoch; _ } -> Printf.sprintf "epoch e%d" epoch

let describe_matches_printf =
  Prop.case ~name:"Message.describe m = Printf reference" ~base:0xA110_000CL
    ~gen:gen_message ~show:Message.describe (fun m ->
      let reference = printf_describe m in
      if String.equal (Message.describe m) reference then Ok ()
      else Error (Printf.sprintf "reference renders %S" reference))

let cap_roundtrip =
  Prop.case ~name:"Capability.decode (encode c) = c" ~base:0xA110_0002L
    ~gen:gen_cap ~show:Capability.encode (fun c ->
      match Capability.decode (Capability.encode c) with
      | Some c' when Capability.equal c c' -> Ok ()
      | Some c' ->
        Error (Printf.sprintf "decoded to %s" (Capability.encode c'))
      | None -> Error "failed to parse")

let message_roundtrip =
  Prop.case ~name:"Message.decode (encode m) = Ok m" ~base:0xA110_0003L
    ~gen:gen_message ~show:Message.describe (fun m ->
      match Message.decode (Message.encode m) with
      | Ok m' when m' = m -> Ok ()
      | Ok m' -> Error (Printf.sprintf "decoded to %s" (Message.describe m'))
      | Error e -> Error e)

let message_rejects_truncation =
  (* Chopping the last byte off a non-empty encoding must never decode
     successfully — the wire form is self-delimiting and checks for
     trailing garbage, so a prefix is always malformed. *)
  Prop.case ~name:"Message.decode rejects truncated input"
    ~base:0xA110_0004L ~gen:gen_message ~show:Message.describe (fun m ->
      let s = Message.encode m in
      match Message.decode (String.sub s 0 (String.length s - 1)) with
      | Error _ -> Ok ()
      | Ok m' ->
        Error
          (Printf.sprintf "truncated input decoded as %s"
             (Message.describe m')))

let test_decode_bounds_nesting () =
  (* The reader recurses on Pair/List, so without a depth bound a
     deeply nested input would kill the process with [Stack_overflow]
     instead of returning [Error] — the codec must stay total on
     hostile input.  Depth 300 sits just past the documented bound of
     256; encoding is iterative enough at this size to be safe. *)
  let rec deep n acc = if n = 0 then acc else deep (n - 1) (Value.Pair (acc, Value.Unit)) in
  let m =
    Message.Create_request
      {
        req_id = { Message.origin = 0; seq = 0 };
        type_name = "t";
        init = deep 300 Value.Unit;
        reply_to = 1;
      }
  in
  (match Message.decode (Message.encode m) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-deep nesting decoded successfully");
  (* A value within the bound still round-trips. *)
  let shallow =
    Message.Create_request
      {
        req_id = { Message.origin = 0; seq = 0 };
        type_name = "t";
        init = deep 40 Value.Unit;
        reply_to = 1;
      }
  in
  match Message.decode (Message.encode shallow) with
  | Ok m' -> Alcotest.(check bool) "round-trips" true (m' = shallow)
  | Error e -> Alcotest.failf "shallow nesting rejected: %s" e

let test_cancel_codec_hostile () =
  (* The Cancel envelope rides the urgent path past the coalescer, so
     its codec gets the same hostile-input treatment as the nested
     value decoding above: every proper prefix is rejected, trailing
     garbage is rejected, and corrupting any single byte returns
     [Error] (or an honestly decoded other message) rather than
     raising. *)
  let rng = Splitmix.create 0xCA9CE1L in
  for _ = 1 to 50 do
    let m = Message.Cancel { inv_id = gen_req rng; target = gen_name rng } in
    let s = Message.encode m in
    (match Message.decode s with
    | Ok m' -> Alcotest.(check bool) "cancel round-trips" true (m' = m)
    | Error e -> Alcotest.failf "cancel rejected: %s" e);
    for i = 0 to String.length s - 1 do
      match Message.decode (String.sub s 0 i) with
      | Error _ -> ()
      | Ok m' ->
        Alcotest.failf "prefix of length %d decoded as %s" i
          (Message.describe m')
    done;
    (match Message.decode (s ^ "\x00") with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "trailing garbage accepted");
    String.iteri
      (fun i _ ->
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        ignore (Message.decode (Bytes.to_string b)))
      s
  done

let test_dir_codec_hostile () =
  (* The directory messages carry the locate hot path once the ring is
     on, so their codecs get the same hostile-input treatment as
     Cancel: every proper prefix rejected, trailing garbage rejected,
     and any single corrupted byte returns [Error] (or an honestly
     decoded other message) rather than raising.  Dir_put's replica
     list exercises the bounded-count read; Dir_nack covers the
     negative-home miss reply. *)
  let rng = Splitmix.create 0xD19EC7L in
  let gen_dir rng : Message.t =
    match Splitmix.int rng 3 with
    | 0 ->
      Message.Dir_put
        {
          req_id = gen_req rng;
          target = gen_name rng;
          home = gen_node rng;
          replicas = List.init (Splitmix.int rng 5) (fun _ -> gen_node rng);
          lease = Splitmix.int rng 1_000_000_000;
        }
    | 1 ->
      Message.Dir_get
        { req_id = gen_req rng; target = gen_name rng; reply_to = gen_node rng }
    | _ ->
      Message.Dir_nack
        {
          req_id = gen_req rng;
          target = gen_name rng;
          home = (if Splitmix.bool rng then gen_node rng else -1);
        }
  in
  for _ = 1 to 60 do
    let m = gen_dir rng in
    let s = Message.encode m in
    (match Message.decode s with
    | Ok m' -> Alcotest.(check bool) "dir message round-trips" true (m' = m)
    | Error e -> Alcotest.failf "dir message rejected: %s" e);
    for i = 0 to String.length s - 1 do
      match Message.decode (String.sub s 0 i) with
      | Error _ -> ()
      | Ok m' ->
        Alcotest.failf "prefix of length %d decoded as %s" i
          (Message.describe m')
    done;
    (match Message.decode (s ^ "\x00") with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "trailing garbage accepted");
    String.iteri
      (fun i _ ->
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        ignore (Message.decode (Bytes.to_string b)))
      s
  done

(* Chunked representations (a top-level List) are the delta fast path;
   mix in arbitrary shapes so the [Whole] fallback is exercised too. *)
let gen_chunked rng =
  if Splitmix.int rng 4 = 0 then gen_value 3 rng
  else Value.List (List.init (Splitmix.int rng 8) (fun _ -> gen_value 2 rng))

let gen_delta_pair rng =
  let base = gen_chunked rng in
  let target =
    match Splitmix.int rng 4 with
    | 0 -> base
    | 1 -> gen_chunked rng
    | _ -> (
      (* Dirty a few chunks of the base — the realistic shape. *)
      match base with
      | Value.List chunks ->
        Value.List
          (List.map
             (fun c ->
               if Splitmix.int rng 4 = 0 then gen_value 2 rng else c)
             chunks)
      | v -> v)
  in
  (base, target)

let show_value_pair (b, t) =
  Format.asprintf "%a -> %a" Value.pp b Value.pp t

let delta_apply_roundtrip =
  Prop.case ~name:"Delta.apply (diff base target) base = Ok target"
    ~base:0xA110_0006L ~gen:gen_delta_pair ~show:show_value_pair
    (fun (base, target) ->
      let d = Delta.diff ~base ~target in
      match Delta.apply d ~base with
      | Ok v when Value.equal v target -> Ok ()
      | Ok v -> Error (Format.asprintf "applied to %a" Value.pp v)
      | Error e -> Error (Printf.sprintf "apply failed: %s" e))

let delta_never_larger =
  (* The wire motivation: [diff] guarantees its payload never exceeds
     shipping the whole representation (it degenerates to [Whole]
     when most chunks are dirty). *)
  Prop.case ~name:"Delta.size_bytes (diff base target) <= whole"
    ~base:0xA110_0007L ~gen:gen_delta_pair ~show:show_value_pair
    (fun (base, target) ->
      let d = Delta.diff ~base ~target in
      let ds = Delta.size_bytes d
      and fs = Delta.size_bytes (Delta.Whole target) in
      if ds <= fs then Ok ()
      else Error (Printf.sprintf "delta %dB vs full %dB" ds fs))

(* ------------------------------------------------------------------ *)
(* Traced envelopes *)

module Json = Eden_obs.Json
module Tracectx = Eden_obs.Tracectx

let gen_ctx rng =
  if Splitmix.bool rng then None
  else
    Some
      (Tracectx.make
         ~trace:(Splitmix.int rng 1_000_000)
         ~parent:(Splitmix.int rng 1_000_000))

let traced_roundtrip =
  (* The envelope codec: a message encoded with a trace context hands
     the same context back on decode, and one encoded without stays
     context-free (backward-compatible frames). *)
  Prop.case ~name:"Message.decode_traced (encode ?ctx m) = Ok (ctx, m)"
    ~base:0xA110_000AL
    ~gen:(fun rng -> (gen_ctx rng, gen_message rng))
    ~show:(fun (ctx, m) ->
      Printf.sprintf "%s [%s]" (Message.describe m)
        (match ctx with Some c -> Tracectx.to_string c | None -> "no ctx"))
    (fun (ctx, m) ->
      match Message.decode_traced (Message.encode ?ctx m) with
      | Ok (ctx', m') when m' = m && Option.equal Tracectx.equal ctx ctx' ->
        Ok ()
      | Ok _ -> Error "envelope round-trip mismatch"
      | Error e -> Error e)

let gen_plan_params rng =
  let seed = Splitmix.next64 rng in
  let nodes = Splitmix.int_in rng 2 8 in
  let segments = Splitmix.int_in rng 1 3 in
  (seed, nodes, segments)

let plan_roundtrip =
  Prop.case ~name:"Plan.of_string (to_string p) = p" ~base:0xA110_0005L
    ~gen:gen_plan_params
    ~show:(fun (seed, nodes, segments) ->
      Printf.sprintf "seed=0x%Lx nodes=%d segments=%d" seed nodes segments)
    (fun (seed, nodes, segments) ->
      let p = Plan.random ~seed ~nodes ~segments ~horizon:(Time.s 30) in
      let text = Plan.to_string p in
      match Plan.of_string text with
      | Error e -> Error (Printf.sprintf "parse failed: %s" e)
      | Ok p' ->
        if String.equal text (Plan.to_string p') then Ok ()
        else Error "re-rendered text differs")

(* ------------------------------------------------------------------ *)
(* Health-plane structures: window-merge algebra and the space-saving
   error bounds. *)

(* A per-tick stream of small integer-valued deltas (exact as floats,
   so equality checks need no epsilon), plus a coin per tick deciding
   which of two windows receives it. *)
let gen_window_stream rng =
  let ticks = Splitmix.int_in rng 1 12 in
  let len = Splitmix.int rng 30 in
  let stream =
    List.init len (fun _ ->
        (float_of_int (Splitmix.int rng 100), Splitmix.bool rng))
  in
  (ticks, stream)

let window_merge_algebra =
  Prop.case ~name:"Window.merge of a split stream = window of the whole"
    ~base:0xB1A0_0001L ~gen:gen_window_stream
    ~show:(fun (ticks, stream) ->
      Printf.sprintf "ticks=%d stream=[%s]" ticks
        (String.concat ";"
           (List.map
              (fun (v, left) -> Printf.sprintf "%g%s" v (if left then "l" else "r"))
              stream)))
    (fun (ticks, stream) ->
      let whole = Eden_obs.Window.create ~ticks in
      let left = Eden_obs.Window.create ~ticks in
      let right = Eden_obs.Window.create ~ticks in
      (* The two windows tick in lockstep: every tick lands in both,
         the value going to one side and zero to the other. *)
      List.iter
        (fun (v, goes_left) ->
          Eden_obs.Window.push whole v;
          Eden_obs.Window.push left (if goes_left then v else 0.0);
          Eden_obs.Window.push right (if goes_left then 0.0 else v))
        stream;
      let merged = Eden_obs.Window.merge left right in
      let depths = List.init (ticks + 2) (fun k -> k + 1) in
      let mismatch =
        List.find_opt
          (fun k ->
            Eden_obs.Window.sum_last merged k
            <> Eden_obs.Window.sum_last whole k
            || Eden_obs.Window.max_last merged k
               < Eden_obs.Window.max_last whole k)
          (List.filter (fun k -> stream <> [] || k = 1) depths)
      in
      match mismatch with
      | None ->
        if Eden_obs.Window.filled merged = Eden_obs.Window.filled whole then
          Ok ()
        else Error "filled differs after merge"
      | Some k -> Error (Printf.sprintf "sum_last %d differs" k))

(* A seeded Zipf-ish stream over more keys than the sketch holds. *)
let gen_topk_stream rng =
  let capacity = Splitmix.int_in rng 4 16 in
  let keys = capacity * 4 in
  let len = Splitmix.int_in rng 50 400 in
  let stream =
    List.init len (fun _ ->
        (* Skewed: low ranks dominate, like object invocation counts. *)
        let r = Splitmix.float rng 1.0 in
        let rank = int_of_float (float_of_int keys *. r *. r *. r) in
        Printf.sprintf "obj%d" (min rank (keys - 1)))
  in
  (capacity, stream)

let topk_error_bounds =
  Prop.case ~name:"Topk estimates never undercount and err <= n/capacity"
    ~base:0xB1A0_0002L ~gen:gen_topk_stream
    ~show:(fun (capacity, stream) ->
      Printf.sprintf "capacity=%d len=%d" capacity (List.length stream))
    (fun (capacity, stream) ->
      let t = Eden_obs.Topk.create ~capacity in
      let true_counts = Hashtbl.create 64 in
      List.iter
        (fun key ->
          Eden_obs.Topk.add t key;
          Hashtbl.replace true_counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt true_counts key)))
        stream;
      let n = List.length stream in
      if Eden_obs.Topk.total t <> n then Error "total miscounted"
      else
        let bad =
          List.find_opt
            (fun e ->
              let truth =
                Option.value ~default:0
                  (Hashtbl.find_opt true_counts e.Eden_obs.Topk.e_key)
              in
              e.Eden_obs.Topk.e_count < truth
              || e.Eden_obs.Topk.e_count - e.Eden_obs.Topk.e_err > truth
              || e.Eden_obs.Topk.e_err * capacity > n)
            (Eden_obs.Topk.entries t)
        in
        match bad with
        | None ->
          (* Any key heavier than n/capacity must be present. *)
          let missing_heavy =
            Hashtbl.fold
              (fun key c acc ->
                if
                  c * capacity > n
                  && not
                       (List.exists
                          (fun e -> e.Eden_obs.Topk.e_key = key)
                          (Eden_obs.Topk.entries t))
                then key :: acc
                else acc)
              true_counts []
          in
          if missing_heavy = [] then Ok ()
          else
            Error
              (Printf.sprintf "heavy hitter %s missing"
                 (List.hd missing_heavy))
        | Some e ->
          Error
            (Printf.sprintf "bounds violated for %s (count %d err %d)"
               e.Eden_obs.Topk.e_key e.Eden_obs.Topk.e_count
               e.Eden_obs.Topk.e_err))

(* ------------------------------------------------------------------ *)
(* Directory ring: placement balance and minimal remapping *)

(* A random membership: 2..16 distinct node ids drawn from 0..63 —
   ring quality must not depend on ids being dense or starting at 0. *)
let gen_node_set rng =
  let n = 2 + Splitmix.int rng 15 in
  let seen = Hashtbl.create 16 in
  let rec draw acc k =
    if k = 0 then acc
    else
      let id = Splitmix.int rng 64 in
      if Hashtbl.mem seen id then draw acc k
      else begin
        Hashtbl.add seen id ();
        draw (id :: acc) (k - 1)
      end
  in
  draw [] n

let show_nodes nodes = String.concat "," (List.map string_of_int nodes)

(* Distinct names, enough per node that placement noise is statistical
   rather than structural: with 512 vnodes per node the load spread is
   ~1/sqrt(512) = 4.4%, so 1.3x the mean is a >6-sigma bound — tight
   enough to catch a broken mixer, loose enough never to flake. *)
let ring_keys n =
  List.init (2048 * n) (fun i -> Name.make ~birth_node:(i mod 64) ~serial:i)

let shard_counts ring nodes keys =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let s = Directory.shard ring name in
      if not (List.mem s nodes) then
        failwith (Printf.sprintf "shard %d not in the node set" s);
      Hashtbl.replace counts s
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    keys;
  counts

let ring_balance =
  Prop.case ~name:"ring balance: max/mean load <= 1.3" ~base:0xD1A0_0001L
    ~gen:gen_node_set ~show:show_nodes (fun nodes ->
      let ring = Directory.make ~nodes () in
      let n = List.length nodes in
      let keys = ring_keys n in
      let counts = shard_counts ring nodes keys in
      let mean = float_of_int (List.length keys) /. float_of_int n in
      let worst =
        List.fold_left
          (fun w id ->
            max w (Option.value ~default:0 (Hashtbl.find_opt counts id)))
          0 nodes
      in
      if float_of_int worst <= 1.3 *. mean then Ok ()
      else Error (Printf.sprintf "max load %d vs mean %.0f" worst mean))

let test_ring_point_name_aliasing () =
  (* Regression: point positions and name positions must come from
     disjoint mixer domains.  With a shared domain, node 0's vnode [k]
     sits at [mix64 k] and a node-0-born name with serial [s] at
     [mix64 s] — every low-serial name lands exactly on a node-0 vnode
     point, and "first point at or after" hands node 0 the entire
     keyspace.  Low ids and low serials are precisely what a real
     cluster mints first, so this shape is the common case, not a
     corner. *)
  let nodes = [ 0; 1; 2; 3 ] in
  let ring = Directory.make ~nodes () in
  let keys =
    List.init 2048 (fun s -> Name.make ~birth_node:0 ~serial:(s + 1))
  in
  let counts = shard_counts ring nodes keys in
  let mean = float_of_int (List.length keys) /. float_of_int 4 in
  List.iter
    (fun id ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts id) in
      if float_of_int c > 1.3 *. mean then
        Alcotest.failf "node %d owns %d of %d node-0-born names" id c
          (List.length keys))
    nodes

(* Consistent hashing's point: membership changes remap only the keys
   the changed node owned.  A leave must not move any key the leaver
   did not own, a join may only move keys onto the joiner, and either
   way the moved fraction stays near 1/n (bounded at 2/n — again about
   6 sigma for these sizes). *)
let gen_membership rng =
  let nodes = gen_node_set rng in
  let rec fresh () =
    let id = Splitmix.int rng 64 in
    if List.mem id nodes then fresh () else id
  in
  (nodes, fresh ())

let ring_minimal_remap =
  Prop.case ~name:"ring remap: join/leave move <= 2/n of the keys"
    ~base:0xD1A0_0002L ~gen:gen_membership
    ~show:(fun (nodes, joiner) ->
      Printf.sprintf "[%s] joiner %d" (show_nodes nodes) joiner)
    (fun (nodes, joiner) ->
      let n = List.length nodes in
      let keys = ring_keys n in
      let k = List.length keys in
      let before = Directory.make ~nodes () in
      let leaver = List.hd nodes in
      let after_leave = Directory.make ~nodes:(List.tl nodes) () in
      let after_join = Directory.make ~nodes:(joiner :: nodes) () in
      let moved_leave = ref 0 and moved_join = ref 0 in
      let err = ref None in
      List.iter
        (fun key ->
          let s0 = Directory.shard before key in
          let sl = Directory.shard after_leave key in
          let sj = Directory.shard after_join key in
          if s0 = leaver then incr moved_leave
          else if sl <> s0 && !err = None then
            err :=
              Some
                (Printf.sprintf
                   "leave of %d moved %s from %d to %d" leaver
                   (Name.to_string key) s0 sl);
          if sj <> s0 then begin
            incr moved_join;
            if sj <> joiner && !err = None then
              err :=
                Some
                  (Printf.sprintf
                     "join of %d moved %s from %d to %d" joiner
                     (Name.to_string key) s0 sj)
          end)
        keys;
      match !err with
      | Some e -> Error e
      | None ->
        if !moved_leave * n > 2 * k then
          Error
            (Printf.sprintf "leave moved %d of %d keys (n = %d)"
               !moved_leave k n)
        else if !moved_join * (n + 1) > 2 * k then
          Error
            (Printf.sprintf "join moved %d of %d keys (n = %d)"
               !moved_join k n)
        else Ok ())

let () =
  Alcotest.run "eden_props"
    [
      ("name", [ name_roundtrip; name_matches_pp ]);
      ("capability", [ cap_roundtrip ]);
      ( "message",
        [
          message_roundtrip;
          message_rejects_truncation;
          describe_matches_printf;
          Alcotest.test_case "decode bounds value nesting" `Quick
            test_decode_bounds_nesting;
          Alcotest.test_case "cancel codec survives hostile input" `Quick
            test_cancel_codec_hostile;
          Alcotest.test_case "dir codecs survive hostile input" `Quick
            test_dir_codec_hostile;
        ] );
      ("delta", [ delta_apply_roundtrip; delta_never_larger ]);
      ("traced", [ traced_roundtrip ]);
      ("fault_plan", [ plan_roundtrip ]);
      ("health", [ window_merge_algebra; topk_error_bounds ]);
      ( "directory",
        [
          ring_balance;
          ring_minimal_remap;
          Alcotest.test_case "point/name domains never alias" `Quick
            test_ring_point_name_aliasing;
        ] );
    ]
