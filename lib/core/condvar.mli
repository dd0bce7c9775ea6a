(** Condition-variable idiom over DepFast events.

    A condvar is a renewable wait point: {!wait} blocks on the current
    underlying event; {!broadcast} fires it, waking every current waiter,
    and leaves a pending one for the next waiters. The classic "wait until
    the predicate holds" loop:

    {[
      while not (predicate ()) do Condvar.wait sched cv done
    ]} *)

type t

val create : ?label:string -> unit -> t

val reset : t -> unit
(** Back to {!create}'s state: a fresh, unfired event, which no waiter
    holds. For a world reused across runs (the schedule checker's). *)

val wait : Sched.t -> t -> unit

val wait_timeout : Sched.t -> t -> Sim.Time.span -> Sched.outcome

val broadcast : t -> unit
(** Wake all current waiters. No-op visible to future waiters. The event
    is re-armed in place, so a broadcast allocates nothing, unless
    {!event} handed it out: then it stays fired and a fresh one takes its
    place. *)

val event : t -> Event.t
(** The current underlying event (e.g. to add into a compound, or a
    generation captured before a wait). The next {!broadcast} fires it and
    leaves it fired: it is not re-armed once handed out. *)
