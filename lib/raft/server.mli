(** DepFastRaft (§3.4): a Raft server written in the DepFast style.

    All request-path waits are quorum waits:
    - a replication round waits on one [QuorumEvent] whose children are the
      leader's own WAL-durability event plus one progress signal per
      follower, with majority arity;
    - elections wait on a [QuorumEvent] over vote-granted signals;
    - client handlers wait on the request's commit event (local).

    Per-follower response handling is framework code driven by event
    callbacks; no coroutine ever waits on a single follower, so a minority
    of arbitrarily slow followers cannot stall the request path
    ({!Depfast.Spg.audit} verifies this mechanically in the tests).

    Leadership: randomized election timeouts with leader stickiness (a
    server that heard from a live leader recently rejects votes, unless the
    election is a deliberate transfer), plus §5's leadership transfer used
    by the fail-slow mitigation. *)

type rpc = (Types.req, Types.resp) Cluster.Rpc.t

type t

val create : rpc -> Cluster.Node.t -> peers:int list -> cfg:Config.t -> t
(** Build the server and install its RPC handler. [peers] are the other
    servers' node ids. Call {!start} to begin operating. *)

val reset : t -> unit
(** Back to {!create}'s state for a world reused across runs, after its
    engine, scheduler, node and RPC fabric were reset: a follower at term
    0 with an empty log and store, its random stream re-split from the
    engine's root. The served handler stays; call {!start} again. *)

val start : t -> unit
(** Spawn the election timer, applier, and hiccup coroutines. *)

val hiccup_loop : Cluster.Node.t -> Sim.Rng.t -> unit
(** Transient CPU hiccups (GC pauses and the like) on one node, until it
    crashes: sleep a {!Config.hiccup_interval} draw from [rng], then slow
    the CPU by {!Config.hiccup_factor} for a {!Config.hiccup_duration} draw
    capped at 10 ms. The
    baselines run the same loop, each server on its own stream. *)

type role = Follower | Candidate | Leader

val id : t -> int
val node : t -> Cluster.Node.t
val term : t -> Types.term
val is_leader : t -> bool
val commit_index : t -> Types.index
val log : t -> Rlog.t
val kv : t -> Kv.t

val become_leader_now : t -> unit
(** Test/bootstrap helper: start an election immediately (bypassing the
    randomized timeout), as after a [Timeout_now]. *)

val pending_depth : t -> int
(** Live depth of the leader's bounded admission queue (always ≤
    [Config.admission_depth] — requests past that are shed). The
    schedule-space checker registers this as a sanitizer queue gauge. *)

val batch_hist : t -> Sim.Hist.t
(** Commit-batch-size distribution: one sample per group-commit flush,
    valued at the number of client commands sealed into that log entry. *)

val shed_count : t -> int
(** Client requests rejected at admission (fail-fast shed replies). *)

val commit_latency_ewma : t -> float
(** Exponentially weighted average of enqueue-to-apply latency for client
    commands at this leader, in microseconds; -1 before the first commit.
    This is the trace-point signal the §5 failure detector consumes. *)

val best_follower : t -> int option
(** Leader-side: the most caught-up follower — the natural leadership
    transfer target. [None] if not leader. *)

val transfer_leadership : t -> target:int -> unit
(** Leader-side: wait (in the calling coroutine) until [target] is caught
    up, then tell it to elect itself. No-op if not leader. *)
