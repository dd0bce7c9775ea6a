(** The engine's timer queue: an intrusive, indexed 4-ary min-heap of
    timed entries.

    Pop order is [(time, seq)]: ties on time break on a sequence number
    drawn afresh at every arm, so the simulation is deterministic
    whatever the heap's shape. An entry is its own handle and records its
    slot in the heap, so a cancel removes it at once, and an entry in no
    heap (fired, cancelled or cleared) can be armed again: an owner that
    arms one timer over and over keeps one entry and allocates nothing
    per arm.

    Pushes must not be earlier than the last popped time (they are clamped
    to it); the engine's clock discipline guarantees this. *)

type 'a t

type 'a handle
(** Identifies an inserted entry; used to cancel or re-arm it. *)

val no_handle : 'a handle
(** A handle to no entry: cancelling it is a no-op. Holders keep it in an
    empty slot instead of an [option]. *)

val create : 'a -> 'a t
(** [create filler] is an empty heap. [filler] overwrites the payload of
    every entry {!cancel} or {!clear} drops, as [Array.make]'s initial
    value fills an array, so a dead entry keeps nothing of its payload
    reachable. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Armed entries. *)

val pos : 'a t -> Time.t
(** Time of the last popped entry ({!Time.zero} initially). *)

val push : 'a t -> time:Time.t -> 'a -> 'a handle
(** O(log n); allocates exactly the entry, which is also the handle.
    [time] earlier than the last popped time is clamped to it. *)

val rearm : 'a t -> 'a handle -> time:Time.t -> 'a -> 'a handle
(** [rearm t h ~time v]: {!cancel} [h], then arm it again at [time] with
    payload [v], drawing its seq from the counter {!push} draws from, so
    pop order is exactly that of [cancel] then [push]. Returns [h],
    allocating nothing, unless [h] is {!no_handle}; then a fresh entry,
    as {!push} makes. *)

val cancel : 'a t -> 'a handle -> unit
(** O(log n): the entry leaves the heap and its payload becomes the
    heap's filler at once, so {!value} of a cancelled handle is the
    filler. Cancelling twice, after the entry fired, or {!no_handle} is a
    no-op. *)

val armed : 'a handle -> bool
(** The entry is due to fire: armed and neither fired, cancelled nor
    dropped by {!clear}. *)

val next_time_or : 'a t -> default:Time.t -> Time.t
(** Earliest entry's time, or [default] when empty; allocates nothing. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest entry. *)

val take_handle : 'a t -> 'a handle
(** {!take_or}, but returning the popped entry itself so its identity
    ({!seq}) is available alongside the payload; allocates nothing.
    {!no_handle} when the heap is empty. The engine reads the seq of
    every timer it runs from it. *)

val seq : 'a handle -> int
(** The sequence number of the entry's latest arm (the pop tiebreaker). *)

val value : 'a handle -> 'a
val time : 'a handle -> Time.t

val clear : 'a t -> unit
(** Drop every entry and return to {!create}'s state (sequence numbers
    restart at 0), keeping the storage already grown. Handles taken
    before the clear count as cancelled, their payloads released, and
    re-arm in place. *)

val take_or : 'a t -> default:'a -> 'a
(** {!pop} for the scheduler hot loop: returns the earliest entry's
    value, or [default] when empty, allocating nothing. The popped
    entry's time is readable from {!pos}. *)
