(** Domain-safety fixture B: a lock-free [Atomic] counter (the
    {e guarded} exemplar, no Mutex needed) plus [relay] — a writer
    through a parameter alias that neither the growth nor the effect
    analysis can see, seeded for the explorer's false-independence
    cross-check. *)

val value : unit -> int
val reset : unit -> unit

val spawn_worker : Depfast.Sched.t -> name:string -> rounds:int -> unit
(** [rounds] atomic increments with a yield between each. *)

val spawn_relay :
  Depfast.Sched.t -> name:string -> int Queue.t -> rounds:int -> unit
