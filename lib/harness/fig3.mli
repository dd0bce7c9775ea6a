(** Figure 3: DepFastRaft with a minority of fail-slow followers, 3-node
    and 5-node deployments — absolute throughput / average latency / P99.

    The paper's §3.4 claim: all three metrics stay within a 5% band of
    the no-fault baseline, at a base throughput around 5K
    requests/second. *)

type row = {
  n : int;
  fault : Cluster.Fault.kind option;
  metrics : Workload.Metrics.t;
  drift_tput : float;  (** (value - baseline) / baseline *)
  drift_mean : float;
  drift_p99 : float;
}

val minority : int -> int
(** Largest follower count that still leaves a working majority. *)

val run_setup : ?params:Params.t -> n:int -> unit -> row list
(** The no-fault baseline row plus one row per fault kind, all injected
    into a minority of followers of an [n]-node group. *)

val print : ?params:Params.t -> unit -> unit
