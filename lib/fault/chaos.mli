(** The chaos workload and the artifact bundle one run of it yields.

    Mirrored counters (one per member, checkpointed on its home and
    successor) take a paced request stream from node 0 while a fault
    plan crashes nodes, fails disks, partitions segments, degrades
    links and reconfigures membership.  With [frozen_reads] a frozen
    counter on the last member, replicated on nodes 1 and 2 (given at
    least 4 members), is read every other iteration — the shape
    cloning and hedging act on.
    After the stream every counter is probed once more: the plan heals
    before its horizon, so every mirrored counter must answer.

    Every run arms the health plane (default plus attribution
    watchdogs) and critical-path profiling, so one run yields every
    artifact: metrics, causal timeline, latency profile, health report
    and hot objects, all derived from the cluster's journals and
    registry, and the cross-node invariant verdicts.  Everything is a
    function of the configuration: two runs of one configuration give
    byte-identical {!files}. *)

type config = {
  nodes : int;  (** boot members, at least 2 *)
  spares : int;  (** nodes racked outside the boot membership *)
  seed : int;
  requests : int;  (** stream length, one request every 10 virtual ms *)
  plan : Plan.t option;
      (** [None]: {!Plan.random} from [seed] over the whole rack,
          healing within 2 s; the stream outlives it *)
  options : Eden_kernel.Cluster.options;
      (** [use_profiling] is forced on *)
  coalesce : Eden_net.Internet.coalesce option;
  ckpt_async : bool;  (** persist updates through [checkpoint_async] *)
  frozen_reads : bool;
}

val counter_type : async:bool -> Eden_kernel.Typemgr.t
(** The workload's object type, ["chaos_counter"]: [config (List
    sites)] mirrors the checkpoint over [sites], [incr] bumps and
    checkpoints (through [checkpoint_async] when [async]), [get]
    reads. *)

val default : config
(** 5 nodes, no spares, seed 42, 220 requests, a random plan, default
    options, no coalescing, synchronous checkpoints, no frozen reads. *)

type bundle = {
  cluster : Eden_kernel.Cluster.t;  (** the finished cluster *)
  plan : Plan.t;  (** the plan that was armed *)
  ok : int;  (** stream invocations that succeeded *)
  failed : int;
  probes_ok : bool;  (** every counter answered after the stream *)
  injected : int;  (** faults the controller applied *)
  reads : int option list;  (** frozen-read results, stream order *)
  timeline : Eden_obs.Timeline.t;
  profile : Eden_obs.Profile.t;
  violations : Eden_obs.Check.violation list;
  dropped : int;
      (** journal ring drops; non-zero skips the completeness-gated
          invariants *)
}

val run : config -> bundle
(** Raises [Invalid_argument] when [nodes < 2] or the plan names a
    node or segment outside the rack. *)

val files : bundle -> (string * string) list
(** The artifact set as (file name, contents), in a fixed order:
    [summary.txt], [plan.txt], [metrics.json], [timeline.json] (Chrome
    trace_event), [timeline.txt], [profile.txt], [profile.json],
    [profile.folded] (flame-graph stacks), [profile-chrome.json]
    (timeline with attribution bars), [health.txt], [health.json],
    [top.txt] (hot objects per node and cluster-wide) and
    [check.json]. *)
