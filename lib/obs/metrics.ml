open Eden_util

type labels = (string * string) list

type counter = int ref
type gauge = float ref

type histogram = {
  h_bounds : float array;
  h_counts : int array;  (* one per bound, plus overflow at the end *)
  h_sum : float array;
      (* one cell: a float array stores it unboxed, so an observation
         allocates nothing *)
  mutable h_n : int;
}

type instrument =
  | I_counter of counter
  | I_counter_fn of (unit -> int)
  | I_gauge of gauge
  | I_gauge_fn of (unit -> float)
  | I_histogram of histogram

type t = { tbl : (string * labels, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | I_counter _ | I_counter_fn _ -> "counter"
  | I_gauge _ | I_gauge_fn _ -> "gauge"
  | I_histogram _ -> "histogram"

(* Register [make ()] under [(name, labels)], or return the existing
   instrument when [reuse] accepts it. *)
let intern reg ?(labels = []) name ~reuse ~make =
  let key = (name, canon labels) in
  match Hashtbl.find_opt reg.tbl key with
  | Some existing -> (
    match reuse existing with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s" name
           (kind_name existing)))
  | None ->
    let inst, v = make () in
    Hashtbl.replace reg.tbl key inst;
    v

let counter reg ?labels name =
  intern reg ?labels name
    ~reuse:(function I_counter c -> Some c | _ -> None)
    ~make:(fun () ->
      let c = ref 0 in
      (I_counter c, c))

let incr c = Stdlib.incr c

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c := !c + n

let counter_value c = !c

let gauge reg ?labels name =
  intern reg ?labels name
    ~reuse:(function I_gauge g -> Some g | _ -> None)
    ~make:(fun () ->
      let g = ref 0.0 in
      (I_gauge g, g))

(* NaN would poison every later comparison against the gauge (all
   orderings are false), so a NaN store is dropped rather than stored. *)
let set g v = if Float.is_nan v then () else g := v
let gauge_value g = !g

let histogram reg ?labels ~buckets name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    buckets;
  intern reg ?labels name
    ~reuse:(function
      | I_histogram h when h.h_bounds = buckets -> Some h
      | I_histogram _ ->
        invalid_arg
          (Printf.sprintf "Metrics: histogram %S bucket mismatch" name)
      | _ -> None)
    ~make:(fun () ->
      let h =
        {
          h_bounds = Array.copy buckets;
          h_counts = Array.make (Array.length buckets + 1) 0;
          h_sum = [| 0.0 |];
          h_n = 0;
        }
      in
      (I_histogram h, h))

(* A NaN observation fails every [v <= bound] test and lands in
   overflow while turning [h_sum] into NaN for good; a negative one
   lands in the first bucket and drags the sum down.  Histograms here
   record magnitudes (durations, sizes), so both are measurement bugs:
   drop them instead of polluting the buckets.  Inlined into
   [observe_time], so the converted duration is never boxed. *)
let[@inline] observe h v =
  if Float.is_nan v || v < 0.0 || v = infinity then ()
  else begin
    let n = Array.length h.h_bounds in
    let i = ref 0 in
    while !i < n && not (v <= h.h_bounds.(!i)) do
      incr i
    done;
    h.h_counts.(!i) <- h.h_counts.(!i) + 1;
    h.h_sum.(0) <- h.h_sum.(0) +. v;
    h.h_n <- h.h_n + 1
  end

(* [Time.to_sec], spelt out: the float a call into another module
   returns is boxed. *)
let observe_time h (t : Time.t) = observe h (Float.of_int (t :> int) /. 1e9)

let register_counter_fn reg ?labels name f =
  intern reg ?labels name
    ~reuse:(fun _ -> None)
    ~make:(fun () -> (I_counter_fn f, ()))

let register_gauge_fn reg ?labels name f =
  intern reg ?labels name
    ~reuse:(fun _ -> None)
    ~make:(fun () -> (I_gauge_fn f, ()))

(* -------------------------------------------------------------------- *)
(* Sampling *)

type histogram_view = {
  bounds : float array;
  counts : int array;
  overflow : int;
  count : int;
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of histogram_view

type sample = { s_name : string; s_labels : labels; s_value : value }

let read = function
  | I_counter c -> Counter !c
  | I_counter_fn f -> Counter (f ())
  | I_gauge g -> Gauge !g
  | I_gauge_fn f -> Gauge (f ())
  | I_histogram h ->
    let n = Array.length h.h_bounds in
    Histogram
      {
        bounds = Array.copy h.h_bounds;
        counts = Array.sub h.h_counts 0 n;
        overflow = h.h_counts.(n);
        count = h.h_n;
        sum = h.h_sum.(0);
      }

let compare_labels a b =
  compare (a : labels) (b : labels)

let sample reg =
  Hashtbl.fold
    (fun (name, labels) inst acc ->
      { s_name = name; s_labels = labels; s_value = read inst } :: acc)
    reg.tbl []
  |> List.sort (fun a b ->
         match String.compare a.s_name b.s_name with
         | 0 -> compare_labels a.s_labels b.s_labels
         | c -> c)

(* [filter] is consulted before [read], so instruments it rejects never
   have their collector closures evaluated.  That matters for callers on
   a hot sampling path: registered gauge functions may walk large
   structures (e.g. the engine's process table), and a periodic sampler
   interested in a handful of names must not pay for the rest. *)
let iter ?filter reg f =
  let want =
    match filter with None -> fun _ -> true | Some p -> p
  in
  Hashtbl.iter
    (fun (name, labels) inst ->
      if want name then f name labels (read inst))
    reg.tbl

let find samples ?(labels = []) name =
  let labels = canon labels in
  List.find_map
    (fun s ->
      if String.equal s.s_name name && s.s_labels = labels then
        Some s.s_value
      else None)
    samples
