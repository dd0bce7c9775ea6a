(** Binary min-heap of timed entries with O(log n) insertion/extraction and
    O(1) lazy cancellation.

    Ties on time are broken by insertion sequence number so the simulation is
    deterministic regardless of heap internals. *)

type 'a t

type handle
(** Identifies an inserted entry; used to cancel it. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool

val size : 'a t -> int
(** Live (non-cancelled) entries. *)

val push : 'a t -> time:Time.t -> 'a -> handle
val cancel : 'a t -> handle -> unit

val cancelled : handle -> bool

val peek_time : 'a t -> Time.t option
(** Earliest live entry's time, skipping cancelled entries. *)

val peek_or : 'a t -> default:'a -> 'a
(** Earliest live entry's value without removing it, or [default] when
    empty; allocates nothing. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live entry. *)

val take_or : 'a t -> default:'a -> 'a
(** {!pop}'s value, or [default] when empty; allocates nothing. *)
