(** DepFastRaft (§3.4), and the replica core every system shares.

    All of DepFastRaft's request-path waits are quorum waits:
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
    by the fail-slow mitigation.

    {b The replica core.} The baselines ([lib/baseline]) run the same
    per-server state, applier, WAL persist, follower append, commit rule
    and client path past admission ({!await_reply}): a baseline server is a
    {!t} built with [~leader] (a fixed leader, no elections) and the
    baselines' {!Replica.profile}. The systems differ in that value, in
    admission (the baselines admit without a bound) and in the replication
    loops each runs on top; nothing here asks which system it serves. *)

type rpc = (Types.req, Types.resp) Cluster.Rpc.t

type t = Replica.t

val create :
  ?profile:Replica.profile -> ?leader:int -> rpc -> Cluster.Node.t -> peers:int list -> cfg:Config.t -> t
(** The server's state; [peers] are the other servers' node ids. [profile]
    defaults to DepFastRaft's: pooled client path, grouped replies,
    zero-copy follower appends. With [leader],
    that node leads term 1 for good: {!run} the server, never {!start} it. *)

val serve : t -> unit
(** Answer the server's RPCs with {!handle}. *)

val handle : t -> Types.req -> Types.resp option
(** DepFastRaft's handler: votes, the follower's serial AppendEntries step
    (CPU, append, WAL persist and commit advance under the append lock),
    leadership transfer, and DepFastRaft's client path: requests past
    [cfg]'s admission depth are shed, the rest queued and answered by
    {!await_reply}, whose shared acknowledgement it returns as is. *)

val reset : t -> unit
(** Back to {!create}'s state for a world reused across runs, after its
    engine, scheduler, node and RPC fabric were reset: a DepFastRaft
    follower at term 0 with an empty log and store, its random stream
    re-split from the engine's root. The served handler stays; call
    {!start} again. *)

val run : t -> unit
(** Spawn the applier and, with {!Config.enable_hiccups}, the node's
    transient CPU slowdowns ({!Cluster.Fault.hiccups}, on the server's
    stream). *)

val start : t -> unit
(** Spawn the election timer, then {!run}. *)

val id : t -> int
val node : t -> Cluster.Node.t
val term : t -> Types.term
val is_leader : t -> bool
val commit_index : t -> Types.index
val log : t -> Rlog.t
val kv : t -> Kv.t

(** {2 The replica core} *)

val pending : t -> cmd:Types.command -> client:int -> seq:int -> Replica.pending
(** A client request as the leader queues it, stamped now. *)

val await_reply : t -> Replica.pending -> Types.resp option
(** The client path past admission: wait for the queued request's commit
    (up to {!Config.client_timeout}), pay the profile's reply cost and
    answer, naming this node as leader. Every committed request without a
    value is answered with one shared, immutable acknowledgement
    ([Replica.t]'s [ack], built at {!create}), so the reply builds
    nothing; a read, a failed request and a timeout build their own. *)

val not_leader : t -> Types.resp
(** The failed reply that points the client at the known leader. *)

val await_work : t -> unit
(** With nothing queued, wait up to {!Config.group_commit_window}. *)

val take_batch : t -> max:int -> index:Types.index -> Replica.pending array
(** Pop up to [max] queued requests, oldest first: the commands the
    applier applies from log index [index] on answer them in turn. *)

val wal : t -> Types.entry array -> Depfast.Event.t
(** Write the batch to the local WAL and fsync; fires once durable. *)

val persist : t -> Types.entry array -> unit
(** {!wal}, waited. *)

val append_entries : t -> Types.entry array -> unit
(** Append a received batch, truncating a conflicting suffix. *)

val set_commit : t -> Types.index -> unit
(** Advance the commit point, within the log, to at most the given index. *)

val select_kth : int array -> int -> int -> int -> int
(** [select_kth a lo hi k]: the [k]-th largest (0-based) of [a.(lo..hi)],
    in place, allocating nothing. *)

val quorum_index : t -> own:Types.index -> Types.index
(** The majority rule: the highest index a majority of voters holds, the
    leader holding [own], each follower its [match_index]. *)

val fire_watchers : Replica.follower -> unit
(** Fire the follower's progress signals its [match_index] has reached. *)

val quorum_round : t -> Depfast.Event.t -> wal:Depfast.Event.t -> Types.index -> unit
(** Fill a replication round's §3.1 QuorumEvent: the WAL event plus one
    progress signal per follower, which {!fire_watchers} fires once that
    follower holds the given index. *)

(** {2 DepFastRaft} *)

val become_leader_now : t -> unit
(** Test/bootstrap helper: start an election immediately (bypassing the
    randomized timeout), as after a [Timeout_now]. *)

val pending_depth : t -> int
(** Live depth of the leader's admission queue (for DepFastRaft at most
    {!Config.admission_depth} — requests past it are shed). The schedule-space checker
    registers this as a sanitizer queue gauge. *)

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
