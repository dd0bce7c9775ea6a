(** Figure 1: performance of the three baseline RSM implementations with
    a fail-slow follower (three-node deployments), normalized to each
    system's own no-fault baseline.

    The paper reports: 17-41% throughput drops, 21-50% average-latency
    increases, 1.6-3.46x P99 increases, and RethinkDB leader crashes
    under CPU fail-slow faults. *)

val print : ?params:Params.t -> ?systems:Runner.system list -> unit -> unit
