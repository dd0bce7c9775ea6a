(** RSM client: leader discovery, retries, exactly-once sessions.

    A client is a coroutine-side handle bound to a client {!Cluster.Node.t}.
    Operations block the calling coroutine until the command commits (or
    retries are exhausted). Retries reuse the same sequence number, so the
    server-side session dedup keeps them exactly-once.

    Per the paper's Figure 2, the client's wait on the leader is a {e red}
    1/1 edge — an accepted single-point wait outside the replication
    quorums. *)

type t

type outcome =
  | Committed of string option  (** applied; the value for reads *)
  | Shed  (** rejected at admission — terminal, no retry (fail-fast) *)
  | Failed  (** retries exhausted (leader unreachable / no quorum) *)

val create :
  (Types.req, Types.resp) Cluster.Rpc.t ->
  Cluster.Node.t ->
  servers:int list ->
  ?cfg:Config.t ->
  id:int ->
  unit ->
  t
(** The client node must already be attached to the RPC fabric
    ([Cluster.Rpc.attach]). *)

val reset : t -> unit
(** Back to {!create}'s state, its random stream re-split from the
    engine's root; its node is the caller's to reset. *)

val node : t -> Cluster.Node.t
(** The node hosting this client's coroutines. *)

val submit : t -> Types.command -> outcome
(** Submit any state-machine command through the log and report what
    happened. A [Shed] reply is terminal: the leader said it is overloaded,
    and an immediate retry would feed the overload the bounded admission
    queue exists to relieve. Blocking; coroutine context. *)

val command : t -> Types.command -> string option option
(** [submit] collapsed to the legacy shape (used by the 2PC coordinator).
    [None] = failed or shed; [Some r] = committed with apply result [r].
    Blocking; coroutine context. *)

val put : t -> key:string -> value:string -> bool
(** Blocking update; [true] iff committed. Must run inside a coroutine on
    the client's node. *)

val get : t -> key:string -> string option option
(** Blocking linearizable read through the log. [None] = failed;
    [Some v] = committed, [v] is the value (or [None] if key absent). *)

val ops_shed : t -> int
(** Commands that ended in a fail-fast shed reply. *)
