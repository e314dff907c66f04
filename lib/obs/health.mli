(** Declarative SLO watchdogs over windowed metrics.

    A {!t} owns a set of {!Window} rings fed from a {!Metrics} registry
    at a fixed virtual-time tick (the cluster wires {!tick} to
    [Engine.every]), and evaluates each {!rule} with the multi-window
    burn-rate discipline: a rule starts {e firing} only when both the
    short and the long window breach its threshold (a brief spike with
    a healthy long window stays quiet), and returns to {e ok} only when
    neither breaches (the long window's memory gives the hysteresis).
    Signals with no data yet — an empty window, a zero denominator —
    evaluate to [nan], which never breaches.

    Evaluation is driven entirely by virtual time over deterministic
    aggregates, so same-seed runs produce byte-identical reports and
    the identical sequence of alert transitions. *)

type signal =
  | Rate of string
      (** Per-second rate of a counter over the window, summed across
          its label sets (per-node counters roll up cluster-wide). *)
  | Ratio of string * string
      (** Windowed delta of the first counter divided by the windowed
          delta of the second ([nan] when the denominator is zero) —
          e.g. retries per invocation. *)
  | Share of string * string
      (** [a / (a + b)] over windowed counter deltas — e.g. cache hits
          against misses. *)
  | Quantile of string * float
      (** Windowed quantile (in [0,1]) of a histogram, bucket deltas
          summed across label sets, estimated per
          {!Window.Hist.quantile_last}. *)
  | Gauge_max of string
      (** Maximum of the gauge across label sets and across the ticks
          of the window — depth-style signals (queues, in-flight
          checkpoints) alert on their recent worst case. *)
  | Share_of_latency of Critical.category
      (** A critical-path category's share of attributed latency over
          the window: the windowed delta of {!profile_counter} divided
          by that of {!profile_total} (the counters the cluster feeds
          from {!Critical}'s online fold with [use_profiling] on;
          [nan] while no requests finish).  Lets a watchdog fire on attribution
          shifts — wire time suddenly dominating, directory hops
          blowing up — rather than on raw latency alone. *)

type cmp = Above | Below

type rule = {
  r_name : string;
  r_signal : signal;
  r_cmp : cmp;
  r_threshold : float;  (** breach when the value is strictly beyond *)
}

type config = {
  hc_tick : Eden_util.Time.t;  (** sampling interval (virtual time) *)
  hc_short : int;  (** short-window length in ticks *)
  hc_long : int;  (** long-window length in ticks; also ring size *)
  hc_rules : rule list;
}

val default_rules : rule list
(** Watchdogs over the standard cluster metrics: p99 invocation
    latency, retry ratio, replica-cache hit share, async-checkpoint
    lag, object queue depth and pending remote requests. *)

val profile_rules : rule list
(** Watchdogs over the profiler's latency attribution: wire or queue
    share above one half, directory share above 0.4, backoff share
    above 0.3.  Separate from {!default_rules} because the
    [eden.profile.*] counters exist only with
    [Cluster.options.use_profiling]; append to [hc_rules] when
    profiling is on. *)

val profile_counter : Critical.category -> string
(** [eden.profile.<category>_ns]: the category's attributed
    nanoseconds, summed over finished requests. *)

val profile_total : string
(** [eden.profile.total_ns]: end-to-end nanoseconds of the same
    requests. *)

val default_config : config
(** [default_rules] sampled every 250 virtual ms, short window 4 ticks
    (1 s), long window 24 ticks (6 s). *)

type t

val create :
  ?on_transition:(rule -> firing:bool -> value:float -> unit) ->
  config ->
  Metrics.t ->
  t
(** Builds the windows and reads the registry once to baseline every
    tracked counter, so pre-existing totals do not appear as a burst in
    the first tick.  [on_transition] fires on every state change with
    the rule and its short-window value.  Raises [Invalid_argument] on
    a zero tick, [hc_short < 1] or [hc_long < hc_short]. *)

val tick : t -> unit
(** Close one tick: read the registry, push per-tick deltas into every
    window, re-evaluate all rules and report transitions. *)

val config : t -> config

val ticks : t -> int
(** Ticks closed so far. *)

val firing : t -> int
(** Rules currently firing. *)

val transitions : t -> int
(** Total state changes since creation. *)

type status = {
  st_rule : rule;
  st_firing : bool;
  st_short : float;  (** latest short-window value ([nan] = no data) *)
  st_long : float;
}

val statuses : t -> status list
(** One status per rule, in [hc_rules] order. *)

val report : t -> string
(** Deterministic fixed-width text dashboard (the head of the
    [health.txt] artifact in an [edenctl run] bundle). *)

val to_json : t -> Json.t
(** Schema [eden-health/1]; [nan] values export as [null]. *)

val signal_to_string : signal -> string
