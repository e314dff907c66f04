open Eden_util

type kind =
  | Send of { msg : string; dst : int option }
  | Recv of { msg : string; src : int }
  | Drop of { dst : int option; msgs : int }
  | Duplicate of { dst : int option; msgs : int }
  | Delay of { dst : int option; msgs : int }
  | Coalesce of { dst : int; msgs : int }
  | Retry of { op : string; attempt : int }
  | Inv_begin of { op : string; target : string; caller : int option }
  | Inv_end of { op : string; outcome : string }
  | Ckpt_round of { target : string; version : int }
  | Cache_install of { target : string; epoch : int }
  | Cache_invalidate of { target : string; epoch : int }
  | Activate of { target : string; version : int }
  | Alert of { rule : string; firing : bool }
  | Clone_fanout of { op : string; sites : int }
  | Clone_win of { op : string; winner : int }
  | Clone_cancel of { dst : int }
  | Hedge of { op : string; dst : int }
  | Dir_hit of { target : string; home : int }
  | Dir_miss of { target : string }
  | Dir_fallback of { target : string }
  | Dir_publish of { target : string; home : int }
  | Epoch_bump of { epoch : int }
  | Drain_move of { target : string; to_node : int }
  | Work_start of { op : string }
  | Net_flush of { dst : int; msgs : int }
  | Net_hold of { dst : int option; by : Time.t }
  | Drain_stall of { target : string }
  | Log of { text : string }

let kind_name = function
  | Send _ -> "send"
  | Recv _ -> "recv"
  | Drop _ -> "drop"
  | Duplicate _ -> "duplicate"
  | Delay _ -> "delay"
  | Coalesce _ -> "coalesce"
  | Retry _ -> "retry"
  | Inv_begin _ -> "inv_begin"
  | Inv_end _ -> "inv_end"
  | Ckpt_round _ -> "ckpt_round"
  | Cache_install _ -> "cache_install"
  | Cache_invalidate _ -> "cache_invalidate"
  | Activate _ -> "activate"
  | Alert _ -> "alert"
  | Clone_fanout _ -> "clone_fanout"
  | Clone_win _ -> "clone_win"
  | Clone_cancel _ -> "clone_cancel"
  | Hedge _ -> "hedge"
  | Dir_hit _ -> "dir_hit"
  | Dir_miss _ -> "dir_miss"
  | Dir_fallback _ -> "dir_fallback"
  | Dir_publish _ -> "dir_publish"
  | Epoch_bump _ -> "epoch_bump"
  | Drain_move _ -> "drain_move"
  | Work_start _ -> "work_start"
  | Net_flush _ -> "net_flush"
  | Net_hold _ -> "net_hold"
  | Drain_stall _ -> "drain_stall"
  | Log _ -> "log"

let pp_dst = function Some d -> Printf.sprintf "n%d" d | None -> "*"

let describe_kind = function
  | Send { msg; dst } -> Printf.sprintf "send %s -> %s" msg (pp_dst dst)
  | Recv { msg; src } -> Printf.sprintf "recv %s <- n%d" msg src
  | Drop { dst; msgs } ->
    Printf.sprintf "drop %d msg(s) -> %s" msgs (pp_dst dst)
  | Duplicate { dst; msgs } ->
    Printf.sprintf "duplicate %d msg(s) -> %s" msgs (pp_dst dst)
  | Delay { dst; msgs } ->
    Printf.sprintf "delay %d msg(s) -> %s" msgs (pp_dst dst)
  | Coalesce { dst; msgs } ->
    Printf.sprintf "coalesce %d msg(s) -> n%d" msgs dst
  | Retry { op; attempt } -> Printf.sprintf "retry #%d %s" attempt op
  | Inv_begin { op; target; caller = None } ->
    Printf.sprintf "invoke %s.%s" target op
  | Inv_begin { op; target; caller = Some c } ->
    Printf.sprintf "invoke %s.%s from trace %d" target op c
  | Inv_end { op; outcome } -> Printf.sprintf "invoked %s: %s" op outcome
  | Ckpt_round { target; version } ->
    Printf.sprintf "ckpt round %s v%d" target version
  | Cache_install { target; epoch } ->
    Printf.sprintf "cache install %s @e%d" target epoch
  | Cache_invalidate { target; epoch } ->
    Printf.sprintf "cache invalidate %s @e%d" target epoch
  | Activate { target; version } ->
    Printf.sprintf "activate %s from v%d" target version
  | Alert { rule; firing } ->
    Printf.sprintf "alert %s %s" rule (if firing then "firing" else "resolved")
  | Clone_fanout { op; sites } ->
    Printf.sprintf "clone fanout %s to %d site(s)" op sites
  | Clone_win { op; winner } -> Printf.sprintf "clone win %s <- n%d" op winner
  | Clone_cancel { dst } -> Printf.sprintf "clone cancel -> n%d" dst
  | Hedge { op; dst } -> Printf.sprintf "hedge %s -> n%d" op dst
  | Dir_hit { target; home } -> Printf.sprintf "dir hit %s@%d" target home
  | Dir_miss { target } -> Printf.sprintf "dir miss %s" target
  | Dir_fallback { target } -> Printf.sprintf "dir fallback %s" target
  | Dir_publish { target; home } ->
    Printf.sprintf "dir publish %s@%d" target home
  | Epoch_bump { epoch } -> Printf.sprintf "epoch bump -> e%d" epoch
  | Drain_move { target; to_node } ->
    Printf.sprintf "drain move %s -> n%d" target to_node
  | Work_start { op } -> Printf.sprintf "work start %s" op
  | Net_flush { dst; msgs } ->
    Printf.sprintf "net flush %d msg(s) -> n%d" msgs dst
  | Net_hold { dst; by } ->
    Printf.sprintf "net hold %s by %s" (pp_dst dst) (Time.to_string by)
  | Drain_stall { target } -> Printf.sprintf "drain stall %s" target
  | Log { text } -> "log " ^ text

type event = {
  ev_id : int;
  ev_node : int;
  ev_at : Time.t;
  ev_trace : int;
  ev_parent : int option;
  ev_kind : kind;
}

(* String-keyed hash table: the monomorphic [String.equal] keeps
   intern lookups off the polymorphic-compare C call. *)
module Strtbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Event ids are allocated from one shared sink so they are unique
   across the whole cluster and allocation order follows the engine's
   (deterministic) execution order. *)
type sink = { mutable next_id : int }

let sink () = { next_id = 0 }

(* The ring retains no per-event heap allocation.  Recording is on
   the invocation hot path, and what a ring of [event] records (or of
   [kind]s) actually costs is not the stores but the GC: every
   retained record and every fresh [describe] string survives the
   minor heap, is promoted, and inflates major collections for as
   long as the ring holds it.  So each [kind] is encoded into a tag
   plus two int arguments (unboxed [int array]s the minor GC never
   scans) plus up to two string slots, and the strings are interned
   per journal so the ring only ever points at one shared copy — the
   caller's fresh string dies young, exactly as it does with
   journaling off.  The [kind] (and [event]) values are rebuilt at
   export.  [ev_at] is stored as raw nanoseconds ([Time.t] is
   [private int]); [ev_parent = None] and absent int arguments as
   [-1].

   The seven int fields of a slot live contiguously in one stride-7
   [Bigarray] (id, at, trace, parent, tag, a1, a2) and the two string
   slots in a stride-2 array, so a record touches two or three cache
   lines rather than nine parallel arrays, and the Bigarray keeps the
   bulk of the ring outside the OCaml heap where the major collector
   never re-marks it.  What remains of the cost is the ring's cache
   footprint — the write stream cycles through [cap * 72] bytes per
   node, and E20 shows overhead roughly doubling when the rings
   outgrow the cache — which is why [Cluster.default_journal_cap]
   stays modest.  Buffers grow geometrically up to [cap] rather than
   preallocating, so idle journals stay small. *)
let stride = 7

module Ints = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Ints.t

let make_ints n : ints = Ints.create Bigarray.int Bigarray.c_layout n

type t = {
  jn_sink : sink;
  jn_node : int;
  jn_cap : int;
  jn_intern : string Strtbl.t;
  jn_memo : string array;  (* last interned string per call site *)
  mutable jn_ints : ints;          (* stride 7 per slot *)
  mutable jn_strs : string array;  (* stride 2 per slot *)
  mutable jn_size : int;   (* slots currently allocated *)
  mutable jn_start : int;  (* slot of the oldest retained event *)
  mutable jn_len : int;
  mutable jn_recorded : int;
  mutable jn_dropped : int;
}

let create sink ~node ~cap =
  if cap < 0 then invalid_arg "Journal.create: negative capacity";
  {
    jn_sink = sink;
    jn_node = node;
    jn_cap = cap;
    jn_intern = Strtbl.create 64;
    jn_memo = Array.make 22 "";
    jn_ints = make_ints 0;
    jn_strs = [||];
    jn_size = 0;
    jn_start = 0;
    jn_len = 0;
    jn_recorded = 0;
    jn_dropped = 0;
  }

let enabled t = t.jn_cap > 0
let node t = t.jn_node

(* Cap the intern table so an adversarial stream of distinct strings
   (say, per-request payload descriptions) cannot grow it without
   bound; past the cap, strings are stored as-is and simply cost
   their promotion. *)
let intern_cap = 8192

(* [slot] is a static id for the call site in [encode].  Hot traffic
   repeats the same description at the same site over and over, so a
   single [String.equal] against the last interned string there
   usually answers without touching the hash table at all. *)
let intern t slot s =
  let m = Array.unsafe_get t.jn_memo slot in
  if String.equal s m then m
  else
    let c =
      match Strtbl.find t.jn_intern s with
      | c -> c
      | exception Not_found ->
        if Strtbl.length t.jn_intern < intern_cap then
          Strtbl.add t.jn_intern s s;
        s
    in
    Array.unsafe_set t.jn_memo slot c;
    c

let enc_opt = function Some d -> d | None -> -1
let dec_opt d = if d < 0 then None else Some d

(* [set] writes one encoded slot; [store] dispatches on the [kind]
   and calls it arm by arm rather than routing through an
   [encode : kind -> tuple]: the tuple would be a fresh 7-word minor
   allocation per event, and at hot-path rates those allocations (and
   the minor collections they force) cost more than the stores
   themselves. *)
let set t ~slot ~id ~(at : Time.t) ~trace ~parent ~tag ~a1 ~a2 ~s1 ~s2 =
  (* [slot < size] by construction, so the unsafe stores are in
     bounds. *)
  let b = slot * stride in
  let ints = t.jn_ints in
  Ints.unsafe_set ints b id;
  Ints.unsafe_set ints (b + 1) (at :> int);
  Ints.unsafe_set ints (b + 2) trace;
  Ints.unsafe_set ints (b + 3) parent;
  Ints.unsafe_set ints (b + 4) tag;
  Ints.unsafe_set ints (b + 5) a1;
  Ints.unsafe_set ints (b + 6) a2;
  let sb = slot * 2 in
  let strs = t.jn_strs in
  Array.unsafe_set strs sb s1;
  Array.unsafe_set strs (sb + 1) s2

let store t ~slot ~id ~at ~trace ~parent kind =
  match kind with
  | Send { msg; dst } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:0 ~a1:(enc_opt dst) ~a2:(-1)
      ~s1:(intern t 0 msg) ~s2:""
  | Recv { msg; src } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:1 ~a1:src ~a2:(-1)
      ~s1:(intern t 1 msg) ~s2:""
  | Drop { dst; msgs } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:2 ~a1:(enc_opt dst) ~a2:msgs
      ~s1:"" ~s2:""
  | Duplicate { dst; msgs } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:3 ~a1:(enc_opt dst) ~a2:msgs
      ~s1:"" ~s2:""
  | Delay { dst; msgs } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:4 ~a1:(enc_opt dst) ~a2:msgs
      ~s1:"" ~s2:""
  | Coalesce { dst; msgs } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:5 ~a1:dst ~a2:msgs ~s1:"" ~s2:""
  | Retry { op; attempt } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:6 ~a1:attempt ~a2:(-1)
      ~s1:(intern t 2 op) ~s2:""
  | Inv_begin { op; target; caller } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:7 ~a1:(enc_opt caller) ~a2:(-1)
      ~s1:(intern t 3 op) ~s2:(intern t 4 target)
  | Inv_end { op; outcome } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:8 ~a1:(-1) ~a2:(-1)
      ~s1:(intern t 5 op) ~s2:(intern t 6 outcome)
  | Ckpt_round { target; version } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:9 ~a1:version ~a2:(-1)
      ~s1:(intern t 7 target) ~s2:""
  | Cache_install { target; epoch } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:10 ~a1:epoch ~a2:(-1)
      ~s1:(intern t 8 target) ~s2:""
  | Cache_invalidate { target; epoch } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:11 ~a1:epoch ~a2:(-1)
      ~s1:(intern t 9 target) ~s2:""
  | Activate { target; version } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:12 ~a1:version ~a2:(-1)
      ~s1:(intern t 10 target) ~s2:""
  | Alert { rule; firing } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:13 ~a1:(if firing then 1 else 0)
      ~a2:(-1) ~s1:(intern t 11 rule) ~s2:""
  | Clone_fanout { op; sites } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:14 ~a1:sites ~a2:(-1)
      ~s1:(intern t 12 op) ~s2:""
  | Clone_win { op; winner } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:15 ~a1:winner ~a2:(-1)
      ~s1:(intern t 13 op) ~s2:""
  | Clone_cancel { dst } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:16 ~a1:dst ~a2:(-1) ~s1:"" ~s2:""
  | Hedge { op; dst } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:17 ~a1:dst ~a2:(-1)
      ~s1:(intern t 14 op) ~s2:""
  | Dir_hit { target; home } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:18 ~a1:home ~a2:(-1)
      ~s1:(intern t 15 target) ~s2:""
  | Dir_miss { target } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:19 ~a1:(-1) ~a2:(-1)
      ~s1:(intern t 16 target) ~s2:""
  | Dir_fallback { target } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:20 ~a1:(-1) ~a2:(-1)
      ~s1:(intern t 17 target) ~s2:""
  | Dir_publish { target; home } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:21 ~a1:home ~a2:(-1)
      ~s1:(intern t 18 target) ~s2:""
  | Epoch_bump { epoch } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:22 ~a1:epoch ~a2:(-1) ~s1:""
      ~s2:""
  | Drain_move { target; to_node } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:23 ~a1:to_node ~a2:(-1)
      ~s1:(intern t 19 target) ~s2:""
  | Work_start { op } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:24 ~a1:(-1) ~a2:(-1)
      ~s1:(intern t 20 op) ~s2:""
  | Net_flush { dst; msgs } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:25 ~a1:dst ~a2:msgs ~s1:"" ~s2:""
  | Net_hold { dst; by } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:26 ~a1:(enc_opt dst)
      ~a2:(Time.to_ns by) ~s1:"" ~s2:""
  | Drain_stall { target } ->
    set t ~slot ~id ~at ~trace ~parent ~tag:27 ~a1:(-1) ~a2:(-1)
      ~s1:(intern t 21 target) ~s2:""
  | Log { text } ->
    (* Free text is rarely repeated: stored as-is, never interned. *)
    set t ~slot ~id ~at ~trace ~parent ~tag:28 ~a1:(-1) ~a2:(-1) ~s1:text
      ~s2:""

let decode ~tag ~a1 ~a2 ~s1 ~s2 =
  match tag with
  | 0 -> Send { msg = s1; dst = dec_opt a1 }
  | 1 -> Recv { msg = s1; src = a1 }
  | 2 -> Drop { dst = dec_opt a1; msgs = a2 }
  | 3 -> Duplicate { dst = dec_opt a1; msgs = a2 }
  | 4 -> Delay { dst = dec_opt a1; msgs = a2 }
  | 5 -> Coalesce { dst = a1; msgs = a2 }
  | 6 -> Retry { op = s1; attempt = a1 }
  | 7 -> Inv_begin { op = s1; target = s2; caller = dec_opt a1 }
  | 8 -> Inv_end { op = s1; outcome = s2 }
  | 9 -> Ckpt_round { target = s1; version = a1 }
  | 10 -> Cache_install { target = s1; epoch = a1 }
  | 11 -> Cache_invalidate { target = s1; epoch = a1 }
  | 12 -> Activate { target = s1; version = a1 }
  | 13 -> Alert { rule = s1; firing = a1 = 1 }
  | 14 -> Clone_fanout { op = s1; sites = a1 }
  | 15 -> Clone_win { op = s1; winner = a1 }
  | 16 -> Clone_cancel { dst = a1 }
  | 17 -> Hedge { op = s1; dst = a1 }
  | 18 -> Dir_hit { target = s1; home = a1 }
  | 19 -> Dir_miss { target = s1 }
  | 20 -> Dir_fallback { target = s1 }
  | 21 -> Dir_publish { target = s1; home = a1 }
  | 22 -> Epoch_bump { epoch = a1 }
  | 23 -> Drain_move { target = s1; to_node = a1 }
  | 24 -> Work_start { op = s1 }
  | 25 -> Net_flush { dst = a1; msgs = a2 }
  | 26 -> Net_hold { dst = dec_opt a1; by = Time.ns a2 }
  | 27 -> Drain_stall { target = s1 }
  | 28 -> Log { text = s1 }
  | _ -> assert false

let grow t =
  let old = t.jn_size in
  let size = min t.jn_cap (max 64 (old * 2)) in
  let ints = make_ints (size * stride) in
  let strs = Array.make (size * 2) "" in
  for i = 0 to t.jn_len - 1 do
    let src = (t.jn_start + i) mod old in
    for k = 0 to stride - 1 do
      Ints.unsafe_set ints ((i * stride) + k)
        (Ints.unsafe_get t.jn_ints ((src * stride) + k))
    done;
    Array.blit t.jn_strs (src * 2) strs (i * 2) 2
  done;
  t.jn_ints <- ints;
  t.jn_strs <- strs;
  t.jn_size <- size;
  t.jn_start <- 0

(* Always allocates an id (so trace contexts stay meaningful with
   journaling off), but only stores the event when the ring is
   enabled.  When full, the oldest event is overwritten and counted as
   dropped. *)
let record t ~(at : Time.t) ?ctx kind =
  let id = t.jn_sink.next_id in
  t.jn_sink.next_id <- id + 1;
  if t.jn_cap > 0 then begin
    let trace, parent =
      match ctx with
      | Some c -> (Tracectx.trace c, Tracectx.parent c)
      | None -> (id, -1)
    in
    if t.jn_len = t.jn_size && t.jn_size < t.jn_cap then grow t;
    let size = t.jn_size in
    let slot =
      if t.jn_len < size then begin
        (* [start < size] and [len < size], so one conditional
           subtract replaces the (integer-division) [mod]. *)
        let s = t.jn_start + t.jn_len in
        let s = if s >= size then s - size else s in
        t.jn_len <- t.jn_len + 1;
        s
      end
      else begin
        (* Ring full at capacity: overwrite the oldest slot. *)
        let s = t.jn_start in
        let n = s + 1 in
        t.jn_start <- (if n >= size then 0 else n);
        t.jn_dropped <- t.jn_dropped + 1;
        s
      end
    in
    store t ~slot ~id ~at ~trace ~parent kind;
    t.jn_recorded <- t.jn_recorded + 1
  end;
  id

let events t =
  List.init t.jn_len (fun i ->
      let slot = (t.jn_start + i) mod t.jn_size in
      let b = slot * stride in
      let sb = slot * 2 in
      {
        ev_id = Ints.get t.jn_ints b;
        ev_node = t.jn_node;
        ev_at = Time.ns (Ints.get t.jn_ints (b + 1));
        ev_trace = Ints.get t.jn_ints (b + 2);
        ev_parent = dec_opt (Ints.get t.jn_ints (b + 3));
        ev_kind =
          decode ~tag:(Ints.get t.jn_ints (b + 4))
            ~a1:(Ints.get t.jn_ints (b + 5))
            ~a2:(Ints.get t.jn_ints (b + 6))
            ~s1:t.jn_strs.(sb) ~s2:t.jn_strs.(sb + 1);
      })

let recorded t = t.jn_recorded
let dropped t = t.jn_dropped

let pp_event fmt ev =
  Format.fprintf fmt "[%s] n%d #%d trace=%d%s %s" (Time.to_string ev.ev_at)
    ev.ev_node ev.ev_id ev.ev_trace
    (match ev.ev_parent with
    | Some p -> Printf.sprintf " parent=%d" p
    | None -> "")
    (describe_kind ev.ev_kind)
