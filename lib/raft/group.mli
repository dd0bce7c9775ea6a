(** A cluster of {!Server}s plus its clients: DepFastRaft's ({!create}) or,
    through {!build}, a baseline's. *)

type t = {
  rpc : Server.rpc;
  servers : Server.t list;
  nodes : Cluster.Node.t list;
  cfg : Config.t;
  sched : Depfast.Sched.t;
  mutable clients : Client.t list;  (** by {!make_clients}, oldest first *)
}

val build :
  Depfast.Sched.t ->
  n:int ->
  cfg:Config.t ->
  ?first_node_id:int ->
  ?mem_soft_cap:int ->
  ?mem_hard_cap:int ->
  ?profile:Replica.profile ->
  ?leader:int ->
  unit ->
  t
(** [n] servers with node ids [first_node_id..] (default 0..) named
    s1..sN, their nodes' memory capped as given, each built by
    {!Server.create} with [profile] and [leader]: neither served nor
    started. *)

val create :
  Depfast.Sched.t ->
  n:int ->
  ?cfg:Config.t ->
  ?first_node_id:int ->
  unit ->
  t
(** DepFastRaft: {!build}, then every server served by {!Server.handle}
    and started. *)

val reset : t -> unit
(** Back to the state {!create} and {!make_clients} left, for a world
    reused across runs: call it after resetting the scheduler's engine
    ({!Sim.Engine.reset}) and the scheduler ({!Depfast.Sched.reset}).
    Every node, the RPC fabric, every server and every client is reset,
    random streams are re-split in creation order, and the servers'
    coroutines are respawned. *)

val server : t -> int -> Server.t
(** By node id. *)

val leader : t -> Server.t option
(** The live leader with the highest term, if any claims leadership. *)

val wait_for_leader : t -> Server.t option
(** Coroutine-context: poll until some server is leader, for up to 5 s. *)

val elect : t -> int -> unit
(** Deterministic bootstrap (coroutine-context): make the given node id run
    for leader immediately and wait until it wins. *)

val make_clients :
  t -> count:int -> ?first_node_id:int -> ?servers:int list -> unit -> Client.t list
(** Client nodes ids default to starting right after the servers'; each
    client addresses [servers] (default: every server). *)

val ycsb_clients : ?servers:int list -> t -> count:int -> Workload.Driver.client list
(** {!make_clients} wrapped as closed-loop driver clients: a YCSB update is
    a [Put], a read a [Get]. *)

val sut : ?servers:int list -> t -> name:string -> Workload.Sut.t
(** The system under test: the first server's node leads, the others
    follow, and clients come from {!ycsb_clients}. *)
