(** Domain-safety fixture A: a module-level queue deliberately shared
    outside any lock or owner record — the depfast-domains pass's
    canonical {e unsafe-shared} cell (pragma-acknowledged), probed by the
    explorer's independence cross-check. *)

val export : unit -> int Queue.t
(** The shared queue itself — handing it to
    {!Fixture_dom_b.spawn_relay} is how the seeded false-independence
    scenario routes statically invisible writes into it. *)

val depth : unit -> int
(** Live queue depth, for probes and checks. *)

val reset : unit -> unit
(** Clear the queue — call at [make] time; module state persists across
    the explorer's re-executions. *)

val spawn_worker : Depfast.Sched.t -> name:string -> rounds:int -> unit
