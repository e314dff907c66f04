(** What is left of the invocation span recorder: its start counter.

    Invocations are recorded once, in the {!Journal}; latency, its
    attribution ({!Critical}) and call links are derived from that one
    stream.  The benchmark still reads the number of invocations begun
    through this interface, so it stays until the next benchmark change
    deletes it. *)

type collector = Metrics.t
(** The cluster's metrics registry. *)

val started : collector -> int
(** Invocations begun: the [eden.invocations] counters summed over
    their node labels. *)
