(** A FIFO mutex for coroutines.

    Waiters acquire strictly in arrival order (ownership is handed directly
    to the next waiter on {!unlock}), which is what serial per-connection
    processing of a replication stream needs: messages enter the critical
    section in delivery order. *)

type t

val create : ?label:string -> unit -> t

val reset : t -> unit
(** Back to {!create}'s state: unheld, with no waiter. *)

val lock : Sched.t -> t -> unit
(** Coroutine context; suspends until the lock is held. *)

val unlock : t -> unit
(** @raise Invalid_argument if the mutex is not locked. *)

val with_lock : Sched.t -> t -> (unit -> 'a) -> 'a
(** Runs the thunk holding the lock; always releases, re-raising any
    exception. *)

val locked : t -> bool
