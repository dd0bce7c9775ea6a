(** §5 extension: a sharded data store with distributed transactions.

    The paper's future work — "sharded data stores with distributed
    transaction protocols which also have complicated waiting conditions" —
    built on DepFastRaft: keys are hash-partitioned over independent Raft
    groups; cross-shard updates run two-phase commit, with both phases
    replicated through each participant shard's log (prepares lock keys and
    stage writes; commit installs them).

    The coordinator's waits are exactly the §3.2 nested-event idiom: phase 1
    waits on an [OrEvent] of {e AndEvent(all shards prepared-ok)} versus
    {e OrEvent(any shard rejected)}; each per-shard outcome is itself
    determined by that shard's majority QuorumEvent. *)

type t

val create : Depfast.Sched.t -> shards:int -> replicas:int -> ?cfg:Config.t -> unit -> t
(** Builds [shards] independent Raft groups of [replicas] servers each.
    Call {!bootstrap} before use. *)

val bootstrap : t -> unit
(** Elect the first replica of each shard (drives the engine ~1 s).
    Raises [Failure] when a shard's first replica did not win. *)

val groups : t -> Group.t list
val shard_of : t -> string -> int

type session
(** A transaction client: one node issuing commands to every shard. *)

val session : t -> id:int -> session
val session_node : session -> Cluster.Node.t

type outcome = Committed | Aborted | Failed

val txn : session -> writes:(string * string) list -> outcome
(** Atomically apply all writes (coroutine context). [Aborted] = a lock
    conflict with a concurrent transaction; [Failed] = could not reach a
    shard's leader. Either way an abort releases whatever a prepare locked.
    Single-shard transactions await their one prepare directly. *)

val read : session -> key:string -> string option option
(** Linearizable single-key read through the owning shard's log. *)
