(** Figure 1: performance of the three baseline RSM implementations with
    a fail-slow follower (three-node deployments), normalized to each
    system's own no-fault baseline.

    The paper reports: 17-41% throughput drops, 21-50% average-latency
    increases, 1.6-3.46x P99 increases, and RethinkDB leader crashes
    under CPU fail-slow faults. *)

type row = {
  system : Runner.system;
  fault : Cluster.Fault.kind option;
  throughput_norm : float;  (** relative to the system's no-fault cell *)
  mean_latency_norm : float;
  p99_latency_norm : float;
  crashed : bool;  (** leader made no progress during the window *)
  raw : Workload.Metrics.t;
}

val run : ?params:Params.t -> unit -> row list
(** One no-fault row, then one row per Table-1 fault, for each baseline
    system. *)

val print : ?params:Params.t -> unit -> unit
