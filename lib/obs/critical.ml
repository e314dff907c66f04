open Eden_util

type category =
  | Service
  | Queue
  | Wire
  | Coalesce
  | Directory
  | Backoff
  | Spec_wait
  | Drain
  | Wait

let categories =
  [ Service; Queue; Wire; Coalesce; Directory; Backoff; Spec_wait; Drain;
    Wait ]

let category_name = function
  | Service -> "service"
  | Queue -> "queue"
  | Wire -> "wire"
  | Coalesce -> "coalesce"
  | Directory -> "directory"
  | Backoff -> "backoff"
  | Spec_wait -> "spec-wait"
  | Drain -> "drain"
  | Wait -> "wait"

let category_index = function
  | Service -> 0
  | Queue -> 1
  | Wire -> 2
  | Coalesce -> 3
  | Directory -> 4
  | Backoff -> 5
  | Spec_wait -> 6
  | Drain -> 7
  | Wait -> 8

let n_categories = 9

type breakdown = {
  bd_trace : int;
  bd_node : int;
  bd_op : string;
  bd_target : string;
  bd_outcome : string;
  bd_begin : Time.t;
  bd_total_ns : int;
  bd_parts : int array;
}

let part bd c = bd.bd_parts.(category_index c)

let dominant bd =
  let best = ref Service in
  List.iter (fun c -> if part bd c > part bd !best then best := c) categories;
  !best

(* Location-machinery traffic: locate broadcasts and replies, registry
   lookups/publishes/nacks, proactive hints, and the stale-location
   nacks that send a requester back to locate.  (Prefixes of
   [Message.describe] output; see message.ml.) *)
let rec prefix_from p s i =
  i >= String.length p || (p.[i] = s.[i] && prefix_from p s (i + 1))

(* [String.starts_with] would allocate its loop's closure per call. *)
let has_prefix p s = String.length s >= String.length p && prefix_from p s 0

let directory_message msg =
  has_prefix "locate" msg || has_prefix "dir" msg || has_prefix "hint" msg
  || has_prefix "inv_nack" msg

(* Every gap is charged to categories whose nanoseconds sum to the gap
   exactly, so the per-trace category sums telescope to (end - begin)
   by construction. *)
let charge parts c ns =
  let i = category_index c in
  parts.(i) <- parts.(i) + ns

(* Holds recorded against a Send (the hold event's parent is the send
   id) let the Recv gap be split: the held interval is the sender
   sitting on the message — endpoint degradation, charged to service —
   and only the remainder is wire time.  [holds] lists
   (send id, hold start, hold end) in ns. *)
let rec hold_overlap holds ~parent ~t0 ~t1 =
  match holds with
  | [] -> 0
  | (p, h0, h1) :: rest ->
    let here =
      if p = parent then Int.max 0 (Int.min t1 h1 - Int.max t0 h0) else 0
    in
    here + hold_overlap rest ~parent ~t0 ~t1

(* What the walk remembers of the event that opened the current gap:
   only these distinctions change how a gap is charged. *)
type after =
  | After_retry  (* a retry decision: the gap is its backoff sleep *)
  | After_stall  (* parked behind a draining object *)
  | After_answer  (* the request began, or an answer arrived *)
  | After_other

let after_of = function
  | Journal.Retry _ -> After_retry
  | Journal.Drain_stall _ -> After_stall
  | Journal.Recv _ | Journal.Inv_begin _ | Journal.Clone_win _ -> After_answer
  | _ -> After_other

(* Charge the gap from [t0] (after an event of class [after]) to the
   event [kind] at [t1] whose causal parent is [parent] (-1 for none). *)
let classify parts ~holds ~after ~t0 ~t1 ~parent kind =
  let gap = t1 - t0 in
  match after with
  | After_retry -> charge parts Backoff gap
  | After_stall | After_answer | After_other -> (
    match kind with
    | Journal.Net_flush _ -> charge parts Coalesce gap
    | Journal.Net_hold _ -> charge parts Wire gap
    | Journal.Recv { msg; _ } ->
      let held =
        if parent < 0 then 0
        else Int.min gap (hold_overlap holds ~parent ~t0 ~t1)
      in
      charge parts Service held;
      charge parts (if directory_message msg then Directory else Wire)
        (gap - held)
    | Journal.Send { msg; _ } ->
      charge parts (if directory_message msg then Directory else Service) gap
    | Journal.Work_start _ ->
      charge parts (if after = After_stall then Drain else Queue) gap
    | Journal.Drain_stall _ -> charge parts Queue gap
    | Journal.Dir_hit _ | Journal.Dir_miss _ | Journal.Dir_fallback _
    | Journal.Dir_publish _ ->
      charge parts Directory gap
    | Journal.Retry _ | Journal.Hedge _ -> charge parts Wait gap
    | Journal.Clone_win _ -> charge parts Spec_wait gap
    | Journal.Inv_end _ ->
      charge parts (if after = After_answer then Service else Wait) gap
    | _ -> charge parts Service gap)

(* One request's attribution in progress: the walk starts at its
   [Inv_begin] and is stepped with each later event of its trace, in
   id order, until its [Inv_end].  Event ids are allocated in engine
   execution order, which never runs ahead of virtual time, so the
   walk visits events in nondecreasing time: the consecutive gaps tile
   [begin, end] exactly and the category sums telescope to the
   end-to-end latency — the attribution-complete invariant (checker
   rule 8) re-verifies this on every trace.  A hold only ever overlaps
   gaps after it, so knowing the holds seen so far is enough.  The
   walk keeps plain fields rather than events, so stepping it online
   allocates nothing. *)
type walk = {
  w_trace : int;
  w_node : int;
  w_op : string;
  w_target : string;
  w_begin : int;  (* ns *)
  mutable w_at : int;  (* ns of the event that opened the current gap *)
  mutable w_after : after;
  mutable w_holds : (int * int * int) list;
  w_parts : int array;
}

let start ~trace ~node ~at ~op ~target =
  {
    w_trace = trace;
    w_node = node;
    w_op = op;
    w_target = target;
    w_begin = at;
    w_at = at;
    w_after = After_answer;
    w_holds = [];
    w_parts = Array.make n_categories 0;
  }

(* Charge the gap up to the next event of the trace; at the request's
   [Inv_end], its breakdown. *)
let step w ~at ~parent kind =
  classify w.w_parts ~holds:w.w_holds ~after:w.w_after ~t0:w.w_at ~t1:at
    ~parent kind;
  w.w_at <- at;
  w.w_after <- after_of kind;
  match kind with
  | Journal.Net_hold { by; _ } when parent >= 0 ->
    w.w_holds <- (parent, at, at + Time.to_ns by) :: w.w_holds;
    None
  | Journal.Inv_end { outcome; _ } ->
    Some
      {
        bd_trace = w.w_trace;
        bd_node = w.w_node;
        bd_op = w.w_op;
        bd_target = w.w_target;
        bd_outcome = outcome;
        bd_begin = Time.ns w.w_begin;
        bd_total_ns = at - w.w_begin;
        bd_parts = w.w_parts;
      }
  | _ -> None

(* The walks of every request in flight, keyed by trace id.  A request
   whose requester dies before its [Inv_end] keeps its walk. *)
module Walks = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x
end)

type fold = { f_walks : walk Walks.t; f_done : breakdown -> unit }

let fold f_done = { f_walks = Walks.create 64; f_done }

let open_walk f ~trace ~node ~at kind =
  match kind with
  | Journal.Inv_begin { op; target; _ } ->
    Walks.replace f.f_walks trace (start ~trace ~node ~at ~op ~target)
  | _ -> ()

(* [Walks.find] rather than [find_opt]: events of open requests are
   the common case, and they then allocate nothing. *)
let advance f ~trace ~node ~at ~parent kind =
  match Walks.find f.f_walks trace with
  | w -> (
    match step w ~at ~parent kind with
    | Some bd ->
      Walks.remove f.f_walks trace;
      f.f_done bd
    | None -> ())
  | exception Not_found -> open_walk f ~trace ~node ~at kind

(* An event recorded without a context roots a new trace, which no
   walk can be waiting for. *)
let feed f ~id ~node ~at ?ctx kind =
  let at = Time.to_ns at in
  match ctx with
  | Some c ->
    advance f ~trace:(Tracectx.trace c) ~node ~at ~parent:(Tracectx.parent c)
      kind
  | None -> open_walk f ~trace:id ~node ~at kind

let breakdowns events =
  let out = ref [] in
  let f = fold (fun bd -> out := bd :: !out) in
  List.iter
    (fun ev ->
      advance f ~trace:ev.Journal.ev_trace ~node:ev.Journal.ev_node
        ~at:(Time.to_ns ev.Journal.ev_at)
        ~parent:(Option.value ev.Journal.ev_parent ~default:(-1))
        ev.Journal.ev_kind)
    (List.sort (fun a b -> Int.compare a.Journal.ev_id b.Journal.ev_id) events);
  List.sort (fun a b -> Int.compare a.bd_trace b.bd_trace) !out

let sum_parts bd = Array.fold_left ( + ) 0 bd.bd_parts
