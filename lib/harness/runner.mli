(** Builds a system under test on a fresh simulation and runs one
    (system x fault) experiment cell. *)

type system = Depfast_raft | Mongo_like | Tidb_like | Rethink_like

val all_systems : system list
(** Baselines first, DepFastRaft last — the tables' row order. *)

val baseline_systems : system list
val system_name : system -> string

val clients_of_group :
  Raft.Group.t -> count:int -> Workload.Driver.client list
(** Closed-loop driver clients wrapping a Raft group's RPC clients. *)

val sched : Params.t -> Depfast.Sched.t
(** A scheduler on a fresh engine seeded with the params' seed. *)

val bootstrap : Depfast.Sched.t -> n:int -> cfg:Raft.Config.t -> Raft.Group.t
(** A DepFastRaft group with node 0 elected leader, the clock run to 1 s.
    Fails if node 0 did not win. *)

val build :
  system -> Depfast.Sched.t -> n:int -> cfg:Raft.Config.t -> Workload.Sut.t
(** Construct the SUT; for DepFastRaft, {!bootstrap}s node 0 as leader so
    fault victims are always followers (the paper's setup). *)

val drive :
  Depfast.Sched.t ->
  Workload.Sut.t ->
  params:Params.t ->
  slow_count:int ->
  fault:Cluster.Fault.kind option ->
  Workload.Metrics.t
(** Inject [fault] on the SUT's first [slow_count] followers, then run
    the params' closed-loop clients through warm-up and measurement. *)

type cell = {
  system : system;
  n : int;
  fault : Cluster.Fault.kind option;
  metrics : Workload.Metrics.t;
}

val run_cell :
  ?cfg:Raft.Config.t ->
  ?trace:bool ->
  params:Params.t ->
  system:system ->
  n:int ->
  slow_count:int ->
  fault:Cluster.Fault.kind option ->
  unit ->
  cell
(** Run one experiment cell on a fresh engine. [slow_count] faulty
    followers (paper: 1 in 3-node, a minority — 2 — in 5-node setups).
    [trace] records every wait into the scheduler's trace ring for the
    whole run — used to measure the overhead of always-on tracing. *)

val fault_name : Cluster.Fault.kind option -> string
(** Row label: ["No Slowness"] or the injected fault's name. *)
