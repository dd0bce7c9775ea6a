(** Per-node disk model.

    A single-spindle FIFO station. A write costs a base access latency plus
    transfer time at the current bandwidth; [fsync] additionally pays a
    flush latency. The disk-slow fault scales bandwidth down (cgroup blkio
    throttle); disk contention is a competing write stream submitted to the
    same station, so the victim's writes queue behind it. *)

type t

val create :
  Depfast.Sched.t ->
  node_id:int ->
  ?base_latency:Sim.Time.span ->
  ?bandwidth_mb_s:float ->
  unit ->
  t
(** Defaults model a cloud SSD: 80 us access, 150 us fsync, 200 MB/s. *)

val reset : t -> unit
(** Back to {!create}'s state: full bandwidth, zero counters, its station
    reset ({!Station.reset}). *)

val write : t -> bytes:int -> Depfast.Event.t
(** Completion event (kind [Disk]) for a buffered write of [bytes]. *)

val fsync : t -> Depfast.Event.t
(** Completion event for a flush. (The WAL issues write + fsync.) *)

val read : t -> bytes:int -> Depfast.Event.t
(** Completion event for reading [bytes] (same cost model as writes; used by
    the TiDB-like baseline when the entry cache misses). *)

val set_bandwidth_factor : t -> float -> unit
(** Scale effective bandwidth by this factor (e.g. 0.05 = blkio-limited). *)

val station : t -> Station.t
(** The underlying station — exposed so the node can charge it its
    memory's pressure penalty and the contention fault injector can
    submit a competing write stream. *)

val write_count : t -> int
(** Writes submitted since creation (or the last {!reset_stats}). *)

val fsync_count : t -> int
(** Fsyncs submitted since creation (or the last {!reset_stats}). With
    group commit on, the leader's fsyncs-per-committed-op drops below 1 —
    the benchmark reports this ratio. *)

val reset_stats : t -> unit
(** Zero the write/fsync counters (the workload driver calls this at the
    warmup boundary so the ratio covers the measurement window only). *)
