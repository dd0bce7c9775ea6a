(** Fail-slow fault injection — Table 1 of the paper.

    Each injector perturbs one resource of one node, the way the paper's
    tooling did with cgroups / contending processes / tc:

    - {e CPU (slow)}: cgroup limits the process to 5% CPU → CPU station
      speed factor ×20.
    - {e CPU (contention)}: a contending program with 16× the CPU share →
      a contender job stream keeps the CPU station almost fully busy, so
      victim jobs see bursty queueing (≈1/17 effective share).
    - {e Disk (slow)}: cgroup blkio bandwidth limit → disk bandwidth ×0.05.
    - {e Disk (contention)}: a heavy writer on the shared disk → contender
      write stream through the same disk station.
    - {e Memory (contention)}: cgroup memory cap → soft/hard caps on the
      node's memory; pressure slows CPU/disk, exceeding the hard cap OOMs.
    - {e Network (slow)}: `tc` adds 400 ms to the NIC.

    Beside Table 1, {!hiccups} is the transient slowdown every server
    runs (GC pauses, noisy neighbours; the paper's §2 root cause (c)).
    Injection is protocol-agnostic: the RSM code under test never observes
    the fault, only its effects. *)

type kind =
  | Cpu_slow
  | Cpu_contention
  | Disk_slow
  | Disk_contention
  | Mem_contention
  | Net_slow

val all : kind list
(** In Table 1 order. *)

val name : kind -> string
(** Short name, e.g. ["CPU (slow)"]. *)

val key : kind -> string
(** Command-line name, e.g. ["cpu-slow"]. *)

val of_key : string -> kind option  (** The kind {!key} names, if any. *)

val paper_injection : kind -> string
(** The paper's injection method (Table 1, column 2). *)

val sim_injection : kind -> string
(** This repo's simulator mapping (DESIGN.md §5). *)

type active
(** A fault in effect; needed to {!clear} it. *)

val inject : Node.t -> kind -> active
(** Apply the fault to the node, starting contender coroutines if the kind
    needs them. At most one active fault per node is supported. *)

val clear : active -> unit
(** Undo the fault's own change and stop its contenders: a CPU-slow fault
    divides the speed by its factor, so another slowdown in force (a
    hiccup) stays; a memory fault restores the caps saved at inject. (A
    node that already crashed from OOM stays crashed.) *)

val hiccups : Node.t -> Sim.Rng.t -> unit
(** Spawn the node's ["hiccup"] coroutine: after each exponential gap
    (mean 400 ms) the CPU runs x4 slower for a Pareto-tailed pause of at
    least 1 ms, capped at 10 ms, drawn from [rng], until the node dies. *)
