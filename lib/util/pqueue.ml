(* Entries carry an insertion sequence number so that equal keys pop in
   FIFO order: determinism of the simulation depends on it. *)
type 'a entry = { value : 'a; seq : int }

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~cmp = { cmp; data = [||]; size = 0; next_seq = 0 }
let length h = h.size
let is_empty h = h.size = 0

let entry_cmp h a b =
  let c = h.cmp a.value b.value in
  if c <> 0 then c else Int.compare a.seq b.seq

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    (* Element 0 of a non-empty heap seeds the new array; values beyond
       [size] are never read. *)
    let filler = h.data.(0) in
    let ndata = Array.make ncap filler in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_cmp h h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && entry_cmp h h.data.(l) h.data.(!smallest) < 0 then
    smallest := l;
  if r < h.size && entry_cmp h h.data.(r) h.data.(!smallest) < 0 then
    smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h v =
  let e = { value = v; seq = h.next_seq } in
  h.next_seq <- h.next_seq + 1;
  if h.size = 0 && Array.length h.data = 0 then h.data <- Array.make 16 e;
  grow h;
  h.data.(h.size) <- e;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek_exn h =
  if h.size = 0 then invalid_arg "Pqueue.peek_exn: empty heap";
  h.data.(0).value

let pop_exn h =
  if h.size = 0 then invalid_arg "Pqueue.pop_exn: empty heap";
  let top = h.data.(0).value in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end;
  top

let pop h = if h.size = 0 then None else Some (pop_exn h)

let clear h =
  h.size <- 0;
  h.data <- [||]

let rec drain h f =
  if h.size > 0 then begin
    f (pop_exn h);
    drain h f
  end

let to_list_unordered h =
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (h.data.(i).value :: acc)
  in
  collect (h.size - 1) []
