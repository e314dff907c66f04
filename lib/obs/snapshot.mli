(** A point-in-time export of the whole observability state.

    A snapshot is the registry's sampled metrics at a given virtual
    time.  It serialises to a
    stable JSON schema ([eden-metrics/1]) and parses back, so external
    tooling — and the repo's own tests — can verify every exported
    number. *)

type t = {
  at : Eden_util.Time.t;  (** virtual time of the sample *)
  metrics : Metrics.sample list;
}

val take : at:Eden_util.Time.t -> Metrics.t -> t
(** Sample the registry. *)

val find : t -> ?labels:Metrics.labels -> string -> Metrics.value option

val to_json : t -> Json.t
(** Schema:
    {v
    { "schema":  "eden-metrics/1",
      "at_ns":   <int>,
      "metrics": [ { "name": ..., "labels": {...}, "kind": "counter",
                     "value": <int> }
                 | { ..., "kind": "gauge", "value": <float> }
                 | { ..., "kind": "histogram", "bounds": [...],
                     "counts": [...], "overflow": <int>,
                     "count": <int>, "sum": <float> } ] }
    v} *)

val of_json : Json.t -> (t, string) result

val to_string : ?compact:bool -> t -> string
val of_string : string -> (t, string) result

val write_string : path:string -> string -> unit
(** Write [contents] to [path], creating missing parent directories
    first.  The bytes go to a temporary file beside [path] that is then
    renamed over it, so a reader never observes a torn file.  Raises
    [Sys_error] if the path is unwritable.  Every artifact writer in
    the tree goes through this one function. *)

val write_file : ?compact:bool -> t -> path:string -> unit
(** {!write_string} of the JSON export plus a trailing newline. *)

val pp_table : t -> string
(** Render the metric samples as aligned ASCII tables: one table with
    node-labelled metrics as rows and nodes as columns, one for
    segment-labelled metrics, one for everything else (histograms show
    count / mean). *)
