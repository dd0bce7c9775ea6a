(** Deliberately-defective dynamic fixtures, kept in their own module so
    the static certificates over lib/check speak about them separately
    from the registry's correct scenarios. *)

val spawn_broken_quorum : Depfast.Sched.t -> unit
(** The broken quorum builder: ready replies are dropped from the
    quorum wiring, so some interleavings park the builder forever —
    clean to the static wait-structure passes (the wait is
    quorum-shaped), caught only by exploration. *)

val spawn_leaky_backlog : Sanitizer.t -> Depfast.Sched.t -> unit
(** The seeded boundedness-certificate mismatch: a producer grows a
    module-level queue past [backlog_cap] while the consumer carrying
    the statically-certified drain is parked on a gate nobody fires.
    Registers a queue-depth gauge on the sanitizer; exploring the
    scenario yields [queue-gauge-overflow] and (with certificates) a
    [certificate-mismatch]. *)
