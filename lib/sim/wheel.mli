(** Hierarchical timer wheel with the same interface and observable behaviour
    as {!Heap}, tuned for the engine's timer workload: dense short timeouts
    (network latencies, heartbeats, rpc timeouts) insert and extract in O(1)
    amortised instead of O(log n).

    Six levels of 32 slots cover [32^6] us (~17.9 min) from the current
    position at microsecond resolution; deadlines beyond the horizon fall back
    to a binary heap and are popped from there directly. Cancellation is
    amortised O(1): a cancelled entry releases its payload at once and is
    unlinked later, by a scan of its slot or when its level's cancels
    outnumber its live entries by more than a fixed slack (the level is
    then compacted).

    Pop order is {e exactly} the heap's: ties on time break on a global
    insertion sequence number, and the wheel-vs-fallback choice compares
    [(time, seq)] before committing, so swapping {!Heap} for [Wheel] under the
    engine cannot reorder a simulation.

    Pushes must not be earlier than the last popped time (they are clamped to
    it); the engine's clock discipline guarantees this. *)

type 'a t

type 'a handle
(** Identifies an inserted entry; used to cancel it. *)

val no_handle : 'a handle
(** A handle to no entry: cancelling it is a no-op. Holders keep it in an
    empty slot instead of an [option]. *)

val create : 'a -> 'a t
(** [create filler] is an empty wheel. [filler] overwrites the payload of
    every entry {!cancel} or {!clear} drops, as [Array.make]'s initial
    value fills an array, so a dead entry keeps nothing of its payload
    reachable. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Live (non-cancelled) entries. *)

val pos : 'a t -> Time.t
(** Time of the last popped entry ({!Time.zero} initially). *)

val push : 'a t -> time:Time.t -> 'a -> 'a handle
(** O(1); allocates exactly the entry, which is also the handle. [time]
    earlier than the last popped time is clamped to it. *)

val cancel : 'a t -> 'a handle -> unit
(** Amortised O(1): the entry's payload becomes the wheel's filler at
    once, so {!value} of a cancelled handle is the filler. Cancelling
    twice, after the entry fired, or {!no_handle} is a no-op. *)

val next_time_or : 'a t -> default:Time.t -> Time.t
(** Earliest live entry's time, or [default] when empty; allocates
    nothing. Never re-buckets entries (safe to call between pushes); the
    scan result is memoised until the next push/cancel/pop that could
    change it. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live entry, cascading its level's
    surviving siblings to lower levels. *)

val take_handle : 'a t -> 'a handle
(** {!take_or}, but returning the popped entry itself so its identity
    ({!seq}) is available alongside the payload; allocates nothing. The
    wheel must not be empty. Used by the engine's schedule explorer to
    hoist same-deadline ties into the choice set. *)

val seq : 'a handle -> int
(** The entry's global insertion sequence number (the pop tiebreaker). *)

val value : 'a handle -> 'a
val time : 'a handle -> Time.t

val clear : 'a t -> unit
(** Drop every entry and return to {!create}'s state (sequence numbers
    restart at 0), keeping the storage already grown. Handles taken
    before the clear count as cancelled, their payloads released. *)

val take_or : 'a t -> default:'a -> 'a
(** {!pop} for the scheduler hot loop: returns the earliest live entry's
    value, or [default] when empty, allocating nothing. The popped
    entry's time is readable from {!pos}. *)
