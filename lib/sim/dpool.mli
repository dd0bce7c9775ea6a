(** Domain-pool plumbing for the parallel explorer: job sizing,
    scatter/join, and a blocking wakeup gate. No top-level mutable
    state. *)

val recommended_jobs : ?cap:int -> unit -> int
(** Pool size: [Domain.recommended_domain_count ()] overridden by the
    [DEPFAST_JOBS] environment variable when set to a positive integer,
    clamped to [\[1, cap\]] (default cap 8). *)

val scatter : jobs:int -> (int -> 'a) -> 'a array
(** [scatter ~jobs f] runs [f i] for [i] in [0 .. jobs-1], slice 0 on
    the calling domain and the rest on freshly spawned domains, and
    joins into an array indexed by slice. If any slice raises, every
    slice is still joined, then the lowest-indexed exception is
    re-raised. [jobs <= 1] degenerates to [[| f 0 |]] with no spawns. *)

(** Blocking wakeup gate for idle pool workers. Lost-wakeup free: read
    {!Gate.epoch}, re-check for work, then {!Gate.await} that epoch —
    any {!Gate.wake_all} in between makes the await return at once. *)
module Gate : sig
  type t

  val create : unit -> t

  val epoch : t -> int
  (** Current wakeup epoch. *)

  val wake_all : t -> unit
  (** Bump the epoch and wake every sleeper. Call after publishing work
      or a termination flag. *)

  val await : t -> seen:int -> unit
  (** Sleep until the epoch differs from [seen]; returns immediately if
      it already does. *)
end
