(** A simulated machine: CPU, disk, memory, NIC, liveness.

    Matches the paper's testbed shape (Standard_D4s_v3: 4 vCPUs, 16 GB RAM,
    SSD). All fail-slow faults are injected by mutating a node's resources
    (see {!Fault}); protocol code never sees the fault directly — exactly as
    in the real systems. *)

type t

val create :
  Depfast.Sched.t ->
  id:int ->
  name:string ->
  ?mem_soft_cap:int ->
  ?mem_hard_cap:int ->
  unit ->
  t
(** A node has 4 CPU cores (the paper's Standard_D4s_v3 shape) and a
    200 MiB steady working set, pre-charged to {!memory} so memory-cap
    faults create real pressure. *)

val reset : t -> unit
(** Back to {!create}'s state: alive, no NIC delay, the working set
    charged to a reset {!memory}, {!cpu} and {!disk} reset. For a world
    reused across runs, after its engine was reset. *)

val id : t -> int
val sched : t -> Depfast.Sched.t
val cpu : t -> Station.t
val disk : t -> Disk.t
val memory : t -> Memory.t

val nic_delay : t -> Sim.Time.span
val set_nic_delay : t -> Sim.Time.span -> unit
(** Extra one-way delay added to every message in and out of this node
    (the `tc netem` fault). *)

val alive : t -> bool

val crash : t -> unit
(** Mark the node dead. Dead nodes drop all traffic and process nothing.
    Memory OOM calls this automatically. *)

val cpu_work : t -> Sim.Time.span -> unit
(** Coroutine-context helper: occupy one CPU core for the given nominal
    work (inflated by the CPU speed factor and memory-pressure penalty) and
    wait for it ({!Station.run}). On a dead node the caller's coroutine
    simply never resumes — dead machines do not return. *)

val cpu_charge : t -> Sim.Time.span -> unit
(** {!cpu_work} that nobody waits on ({!Station.charge}), dead node or not:
    the cost of work done in callbacks, such as response processing. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Spawn a coroutine tagged with this node's id. *)
