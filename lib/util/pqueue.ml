(* Slot [i] of the heap is ([keys.(i)], [seqs.(i)], [vals.(i)]).  The
   sequence number breaks key ties in insertion order: determinism of
   the simulation depends on it.  Sifting moves a hole rather than
   swapping, and the element being placed is held in locals. *)
type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy =
  { dummy; keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.keys <- extend h.keys 0;
  h.seqs <- extend h.seqs 0;
  h.vals <- extend h.vals h.dummy

(* (key, seq) of slot [i] sorts before (k, s). *)
let before h i k s =
  let ki = h.keys.(i) in
  ki < k || (ki = k && h.seqs.(i) < s)

let set h i k s v =
  h.keys.(i) <- k;
  h.seqs.(i) <- s;
  h.vals.(i) <- v

let move h ~src ~dst = set h dst h.keys.(src) h.seqs.(src) h.vals.(src)

(* Place (k, s, v) at hole [i] or above it. *)
let rec sift_up h i k s v =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before h parent k s) then begin
    move h ~src:parent ~dst:i;
    sift_up h parent k s v
  end
  else set h i k s v

(* Place (k, s, v) at hole [i] or below it. *)
let rec sift_down h i k s v =
  let l = (2 * i) + 1 in
  if l >= h.size then set h i k s v
  else
    let r = l + 1 in
    let c =
      if r < h.size && before h r h.keys.(l) h.seqs.(l) then r else l
    in
    if before h c k s then begin
      move h ~src:c ~dst:i;
      sift_down h c k s v
    end
    else set h i k s v

let push h k v =
  if h.size = Array.length h.keys then grow h;
  let s = h.next_seq in
  h.next_seq <- s + 1;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) k s v

let peek_key_exn h =
  if h.size = 0 then invalid_arg "Pqueue.peek_key_exn: empty heap";
  h.keys.(0)

let peek_exn h =
  if h.size = 0 then invalid_arg "Pqueue.peek_exn: empty heap";
  h.vals.(0)

let pop_exn h =
  if h.size = 0 then invalid_arg "Pqueue.pop_exn: empty heap";
  let top = h.vals.(0) in
  let last = h.size - 1 in
  h.size <- last;
  let k = h.keys.(last) and s = h.seqs.(last) and v = h.vals.(last) in
  h.vals.(last) <- h.dummy;
  if last > 0 then sift_down h 0 k s v;
  top

let rec drain h f =
  if h.size > 0 then begin
    let k = h.keys.(0) in
    f k (pop_exn h);
    drain h f
  end
