(** Per-node memory model.

    Tracks bytes in use by the hosted process (dominated, in the RSM
    workloads, by replication buffers). A {e soft cap} models the onset of
    memory pressure — beyond it, CPU and disk operations pay a growing
    swap/reclaim penalty — and a {e hard cap} models the OOM killer: the
    node crashes (this is how the RethinkDB-style unbounded-buffer backlog
    kills the leader, §2.2). *)

type t

val create : ?soft_cap:int -> ?hard_cap:int -> unit -> t
(** Caps in bytes; defaults are effectively unlimited (16 GiB / 16 GiB). *)

val alloc : t -> int -> unit
val free : t -> int -> unit

val used : t -> int
val soft_cap : t -> int

val set_caps : t -> soft_cap:int -> hard_cap:int -> unit
(** Used by the memory-contention fault injector. *)

val penalty : t -> float
(** Multiplicative latency penalty for CPU/disk work under the current
    pressure: 1.0 below the soft cap, growing linearly to [1 + 4 * excess]
    above it. *)

val on_oom : t -> (unit -> unit) -> unit
(** Invoked (once) by {!alloc} when usage first exceeds the hard cap. *)
