(** Condition-variable idiom over DepFast events.

    A condvar is a renewable wait point: {!wait} blocks on the current
    underlying event; {!broadcast} fires it and installs a fresh one, waking
    every current waiter. The classic "wait until the predicate holds" loop:

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
(** Wake all current waiters. No-op visible to future waiters. *)

val event : t -> Event.t
(** The current underlying event (e.g. to add into a compound). Consumed by
    the next {!broadcast}. *)
