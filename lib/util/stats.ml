type t = {
  mutable samples : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { samples = Array.make 16 0.0; size = 0; sorted = true }

(* Inlined into [add_time], so the sample it converts goes straight
   into the float array without being boxed for the call. *)
let[@inline] add s x =
  if s.size = Array.length s.samples then begin
    let ndata = Array.make (s.size * 2) 0.0 in
    Array.blit s.samples 0 ndata 0 s.size;
    s.samples <- ndata
  end;
  s.samples.(s.size) <- x;
  s.size <- s.size + 1;
  s.sorted <- false

(* [Time.to_sec], spelt out: the float a call into another module
   returns is boxed. *)
let add_time s (t : Time.t) = add s (Float.of_int (t :> int) /. 1e9)
let count s = s.size

let total s =
  let acc = ref 0.0 in
  for i = 0 to s.size - 1 do
    acc := !acc +. s.samples.(i)
  done;
  !acc

let mean s = if s.size = 0 then 0.0 else total s /. Float.of_int s.size

let stddev s =
  if s.size < 2 then 0.0
  else begin
    let m = mean s in
    let acc = ref 0.0 in
    for i = 0 to s.size - 1 do
      let d = s.samples.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    Float.sqrt (!acc /. Float.of_int s.size)
  end

let ensure_nonempty s fn =
  if s.size = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty sample" fn)

(* A full array is sorted where it lies; otherwise the spare capacity
   must stay out of the sort, so the live prefix goes through a copy. *)
let ensure_sorted s =
  if not s.sorted then begin
    if s.size = Array.length s.samples then Array.sort Float.compare s.samples
    else begin
      let live = Array.sub s.samples 0 s.size in
      Array.sort Float.compare live;
      Array.blit live 0 s.samples 0 s.size
    end;
    s.sorted <- true
  end

let min_value s =
  ensure_nonempty s "min_value";
  ensure_sorted s;
  s.samples.(0)

let max_value s =
  ensure_nonempty s "max_value";
  ensure_sorted s;
  s.samples.(s.size - 1)

let percentile s p =
  ensure_nonempty s "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: out of range";
  ensure_sorted s;
  if p = 0.0 then s.samples.(0)
  else begin
    let rank =
      Float.to_int (Float.ceil (p /. 100.0 *. Float.of_int s.size))
    in
    s.samples.(Stdlib.max 0 (rank - 1))
  end

let median s = percentile s 50.0

(* Sized once, so a merge of large samples allocates its result and
   nothing else; the result is full, so its first sort copies nothing.
   An empty result takes [create]'s capacity: [add] doubles it. *)
let merge a b =
  let size = a.size + b.size in
  if size = 0 then create ()
  else begin
    let samples = Array.make size 0.0 in
    Array.blit a.samples 0 samples 0 a.size;
    Array.blit b.samples 0 samples a.size b.size;
    { samples; size; sorted = false }
  end

let pp_summary ppf s =
  if s.size = 0 then Format.pp_print_string ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.6g p50=%.6g p99=%.6g max=%.6g" s.size
      (mean s) (median s) (percentile s 99.0) (max_value s)

module Histogram = struct
  type h = {
    lo : float;
    hi : float;
    counts : int array;
    mutable under : int;
    mutable over : int;
  }

  let create ~lo ~hi ~buckets =
    if not (lo < hi) then invalid_arg "Histogram.create: lo >= hi";
    if buckets <= 0 then invalid_arg "Histogram.create: buckets <= 0";
    { lo; hi; counts = Array.make buckets 0; under = 0; over = 0 }

  let add h x =
    if x < h.lo then h.under <- h.under + 1
    else if x >= h.hi then h.over <- h.over + 1
    else begin
      let n = Array.length h.counts in
      let idx =
        Float.to_int ((x -. h.lo) /. (h.hi -. h.lo) *. Float.of_int n)
      in
      let idx = Stdlib.min (n - 1) idx in
      h.counts.(idx) <- h.counts.(idx) + 1
    end

  let bucket_counts h = Array.copy h.counts
  let underflow h = h.under
  let overflow h = h.over

  let total h =
    Array.fold_left ( + ) 0 h.counts + h.under + h.over

  let pp ppf h =
    let n = Array.length h.counts in
    let width = (h.hi -. h.lo) /. Float.of_int n in
    let peak = Array.fold_left Stdlib.max 1 h.counts in
    for i = 0 to n - 1 do
      let bar = h.counts.(i) * 40 / peak in
      Format.fprintf ppf "[%10.4g, %10.4g) %6d %s@."
        (h.lo +. (Float.of_int i *. width))
        (h.lo +. (Float.of_int (i + 1) *. width))
        h.counts.(i) (String.make bar '#')
    done;
    if h.under > 0 then Format.fprintf ppf "underflow %d@." h.under;
    if h.over > 0 then Format.fprintf ppf "overflow %d@." h.over
end
