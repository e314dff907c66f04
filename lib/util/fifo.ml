(* A ring of plain elements: [push] stores the element itself, so a
   push/pop round trip allocates nothing.  The array is made on the
   first push, filled with [filler], an immediate; a popped slot gets
   [filler] back so the queue keeps nothing reachable.  Because the
   array is never made from an element, a [float t] holds boxed floats
   in an ordinary array, never a flat float array that [filler] could
   not be stored into. *)
type 'a t = {
  capacity : int option;
  mutable data : 'a array;
  mutable head : int; (* index of front element *)
  mutable size : int;
}

let filler () : 'a = Obj.magic 0
let initial_size = 8

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Fifo.create: capacity must be positive"
  | Some _ | None -> ());
  { capacity; data = [||]; head = 0; size = 0 }

let length q = q.size
let is_empty q = q.size = 0

let is_full q =
  match q.capacity with
  | None -> false
  | Some c -> q.size >= c

let capacity q = q.capacity

(* Make room for one more element: the first array, or one twice the
   size with the elements moved to its front. *)
let grow q =
  let cap = Array.length q.data in
  if q.size = cap then begin
    let size = if cap = 0 then initial_size else cap * 2 in
    let ndata = Array.make size (filler ()) in
    for i = 0 to q.size - 1 do
      ndata.(i) <- q.data.((q.head + i) mod cap)
    done;
    q.data <- ndata;
    q.head <- 0
  end

let push q v =
  if is_full q then false
  else begin
    grow q;
    let tail = (q.head + q.size) mod Array.length q.data in
    q.data.(tail) <- v;
    q.size <- q.size + 1;
    true
  end

let push_exn q v = if not (push q v) then invalid_arg "Fifo.push_exn: full"

let push_front q v =
  if is_full q then invalid_arg "Fifo.push_front: full";
  grow q;
  let cap = Array.length q.data in
  q.head <- (q.head + cap - 1) mod cap;
  q.data.(q.head) <- v;
  q.size <- q.size + 1

let pop_exn q =
  if q.size = 0 then invalid_arg "Fifo.pop_exn: empty"
  else begin
    let v = q.data.(q.head) in
    q.data.(q.head) <- filler ();
    q.head <- (q.head + 1) mod Array.length q.data;
    q.size <- q.size - 1;
    v
  end

let pop q = if q.size = 0 then None else Some (pop_exn q)

let peek_exn q =
  if q.size = 0 then invalid_arg "Fifo.peek_exn: empty" else q.data.(q.head)

let peek q = if q.size = 0 then None else Some q.data.(q.head)

let clear q =
  q.data <- [||];
  q.head <- 0;
  q.size <- 0

let iter f q =
  for i = 0 to q.size - 1 do
    f q.data.((q.head + i) mod Array.length q.data)
  done

let to_list q =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) q;
  List.rev !acc
