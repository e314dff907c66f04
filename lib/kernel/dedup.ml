(* Serving-side idempotence bookkeeping for the invocation path.

   Speculative cloning, hedged retries and the fault injector's
   Duplicate verdict all deliver the same request more than once.  The
   requester allocates one request id per logical invocation (a clone
   fan-out shares its id across every site), so the serving node can
   recognise a duplicate by remembering the ids it has recently seen
   and what became of them.

   Keys are the FULL id — (origin node, per-origin sequence).  Every
   node's sequence counter starts at zero, so sequences collide across
   origins constantly; keying by sequence alone would let one
   requester's bookkeeping retract another requester's queued work.
   The pair is packed into one int, so a lookup builds no tuple.

   The table is bounded: keys are remembered in arrival order and the
   oldest is evicted once the cap is reached.  Sequences are monotonic
   per origin (the generator survives crashes precisely so ids are
   never reissued), so an evicted entry can only cause a duplicate to
   slip through — re-executing a read or re-queueing work the
   coordinator will serialise anyway — never a fresh request to be
   wrongly dropped.

   Cancelled entries additionally carry a lease: a cancel that
   overtakes its own request (urgent sends bypass the coalescer) notes
   a tombstone for a request that may never arrive at all — the fault
   injector can have dropped it.  Without expiry every such orphan
   pins a slot until cap eviction, and a drop-heavy plan fills the
   table with tombstones that crowd out live bookkeeping.  With a
   [ttl], a tombstone still in [Cancelled] once its lease runs out is
   reclaimed opportunistically on later operations; an entry that
   progressed past [Cancelled] is never touched.  Expiring a tombstone
   early is as harmless as cap eviction: the worst case is a very late
   duplicate executing once. *)

type state =
  | Queued
  | Started
  | Cancelled

type key = int

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  cap : int;
  ttl : int;  (* lease for Cancelled-only entries, ns; 0 = never expire *)
  now : unit -> Eden_util.Time.t;
  tbl : state Tbl.t;
  order : key Queue.t;
  (* Orphan-cancel leases, expiry order = push order (the clock is
     monotonic).  A key may appear here while its table entry has
     moved on; the state is re-checked at reclaim time. *)
  tombs : (int * key) Queue.t;
}

let create ?(ttl = Eden_util.Time.zero) ?(now = fun () -> Eden_util.Time.zero)
    ~cap () =
  if cap <= 0 then invalid_arg "Dedup.create: cap must be positive";
  if Eden_util.Time.to_ns ttl < 0 then
    invalid_arg "Dedup.create: negative ttl";
  {
    cap;
    ttl = Eden_util.Time.to_ns ttl;
    now;
    tbl = Tbl.create (min cap 256);
    order = Queue.create ();
    tombs = Queue.create ();
  }

(* The origin takes the low [origin_bits]; the sequence, the rest. *)
let origin_bits = 20

let key (id : Message.request_id) =
  if id.Message.origin lsr origin_bits <> 0 then
    invalid_arg "Dedup: origin node id out of range";
  (id.Message.seq lsl origin_bits) lor id.Message.origin

(* Reclaim expired tombstones.  Amortised O(1): each lease is pushed
   once and popped once, and the queue is expiry-ordered, so the loop
   stops at the first live lease. *)
let sweep t =
  if t.ttl > 0 then begin
    let now_ns = Eden_util.Time.to_ns (t.now ()) in
    while
      (not (Queue.is_empty t.tombs)) && fst (Queue.peek t.tombs) <= now_ns
    do
      let _, k = Queue.pop t.tombs in
      match Tbl.find t.tbl k with
      | Cancelled -> Tbl.remove t.tbl k
      | Queued | Started -> ()
      | exception Not_found -> ()
    done
  end

let lease t k =
  if t.ttl > 0 then
    Queue.push (Eden_util.Time.to_ns (t.now ()) + t.ttl, k) t.tombs

(* Eviction pops until it removes a key still present: expired
   tombstones leave stale keys behind in [order], and treating a
   stale pop as the eviction would let the table creep past the
   cap. *)
let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some oldest ->
    if Tbl.mem t.tbl oldest then Tbl.remove t.tbl oldest
    else evict_one t

(* [order] holds each live key at least once, oldest first: keys are
   enqueued on insertion and leave the table via eviction, or via a
   tombstone lease running out. *)
let set t k st =
  if not (Tbl.mem t.tbl k) then begin
    if Tbl.length t.tbl >= t.cap then evict_one t;
    Queue.push k t.order
  end;
  Tbl.replace t.tbl k st

(* The options are constants, so a lookup allocates none. *)
let find_key t k =
  match Tbl.find t.tbl k with
  | Queued -> Some Queued
  | Started -> Some Started
  | Cancelled -> Some Cancelled
  | exception Not_found -> None

let find t id =
  sweep t;
  find_key t (key id)

let note_queued t id =
  sweep t;
  set t (key id) Queued

let start t id =
  sweep t;
  let k = key id in
  match find_key t k with
  | Some Cancelled -> `Retracted
  | Some (Queued | Started) | None ->
    set t k Started;
    `Run

let cancel t id =
  sweep t;
  let k = key id in
  match find_key t k with
  | Some Queued ->
    set t k Cancelled;
    lease t k;
    `Retracted
  | Some (Started | Cancelled) -> `Too_late
  | None ->
    (* The cancel overtook its own request (urgent sends bypass the
       coalescer); remember it so the request is dropped on arrival.
       The request may also never arrive — leased, not pinned. *)
    set t k Cancelled;
    lease t k;
    `Noted

let size t =
  sweep t;
  Tbl.length t.tbl

let reset t =
  Tbl.reset t.tbl;
  Queue.clear t.order;
  Queue.clear t.tombs
