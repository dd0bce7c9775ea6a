(** Per-node memory model.

    Tracks bytes in use by the hosted process (dominated, in the RSM
    workloads, by replication buffers). A {e soft cap} models the onset of
    memory pressure — beyond it, CPU and disk operations pay a growing
    swap/reclaim penalty — and a {e hard cap} models the OOM killer: the
    node crashes (this is how the RethinkDB-style unbounded-buffer backlog
    kills the leader, §2.2). *)

type t

type load = { mutable penalty : float }
(** The current {!penalty}, kept up to date by {!alloc}, {!free} and
    {!set_caps}; other modules only read it. It is an all-float record
    so that a reader in another module (a station starting a job) gets
    the float without boxing it, as a call to {!penalty} would. *)

val create : ?soft_cap:int -> ?hard_cap:int -> unit -> t
(** Caps in bytes; defaults are effectively unlimited (16 GiB / 16 GiB). *)

val reset : t -> unit
(** Back to {!create}'s state: nothing used, the created caps, no OOM
    fired. The {!on_oom} handlers and the {!load} record stay. *)

val alloc : t -> int -> unit
val free : t -> int -> unit

val used : t -> int
val soft_cap : t -> int
val hard_cap : t -> int

val set_caps : t -> soft_cap:int -> hard_cap:int -> unit
(** Used by the memory-contention fault injector. *)

val penalty : t -> float
(** Multiplicative latency penalty for CPU/disk work under the current
    pressure: 1.0 below the soft cap, growing linearly to [1 + 4 * excess]
    above it. *)

val load : t -> load
(** The record that tracks [t]'s penalty. *)

val on_oom : t -> (unit -> unit) -> unit
(** Invoked (once) by {!alloc} when usage first exceeds the hard cap. *)
