(** Ablations for the design choices DESIGN.md calls out.

    A1 — {e quorum wait vs wait-for-all}: replace DepFastRaft's majority
    arity with wait-for-everyone ([replication_arity = `All]). Under a CPU
    fail-slow follower the "all" variant degrades like the baselines,
    showing the QuorumEvent is what buys the tolerance.

    A2 — {e EntryCache size} in the TiDB-like baseline: with a cache large
    enough that nothing is evicted, the blocking disk reads disappear and
    so does most of the degradation — isolating the diagnosed root cause.

    A3 — {e framework-aware broadcast} (§2.3): with straggler discarding
    off, abandoned-call buffers for a slow follower are never released and
    the leader's outstanding-RPC memory grows; with it on, it stays flat.

    A4 — {e chain replication vs quorum replication} (§3.3's tradeoff):
    the same three nodes, workload, and CPU fail-slow fault, but writes
    flow through a chain whose every link is a 1/1 wait. *)

val print : ?params:Params.t -> unit -> unit
