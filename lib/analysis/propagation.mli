(** Interprocedural slowness taint for the depfast-spg pass
    ({!Spg_static}).

    Seeds taint at fail-slow {e resource sites} — disk submissions
    ([Disk.write]/[fsync]/[read], [Event.disk_completion]), net/rpc
    sends and deliveries ([Rpc.call]/[broadcast]/[event]/[serve],
    [Net.send]/[register], [Event.rpc_completion]), declared cost-model
    work ([Node.cpu_work]), and growth sites the boundedness pass
    flagged unbounded — then propagates callee → caller over
    {!Growth}'s whole-project call graph: a synchronous caller inherits
    the slowness of everything it invokes.

    Fault kinds mirror the injectable [Cluster.Fault.kind]s (this
    library cannot depend on [cluster], so the mapping by name lives in
    [lib/check]). Witnesses are deterministic: each tainted function
    records the least-(file, line, head) seed that reaches it and one
    shortest call chain back to it, independent of discovery order. *)

type fault = Cpu_slow | Disk_slow | Net_slow | Memory

val fault_name : fault -> string
(** ["cpu-slow" | "disk-slow" | "net-slow" | "memory"] — matched by
    name against [Cluster.Fault.kind] in [lib/check]. *)

type source = {
  s_fault : fault;
  s_head : string;  (** seeding head, e.g. ["Disk.write"], or growth kind *)
  s_file : string;
  s_line : int;
}

type taint = {
  t_source : source;  (** least-(file, line, head) seed reaching this fn *)
  t_path : string list;  (** call chain: this fn first, seed fn last *)
}

type t

val analyze : Growth.project -> t

val taints : t -> string -> (fault * taint) list
(** Taints of a function by qualified name, in the declaration order of
    {!fault}; [[]] when untainted. *)

val rpc_completions : string list
(** The net-slow seed heads that build a waitable rpc completion
    ([Rpc.event], [Event.rpc_completion]), on their last two segments. *)
