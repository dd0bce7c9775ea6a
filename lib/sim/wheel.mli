(** Hierarchical timer wheel with the same interface and observable behaviour
    as {!Heap}, tuned for the engine's timer workload: dense short timeouts
    (network latencies, heartbeats, rpc timeouts) insert and extract in O(1)
    amortised instead of O(log n).

    Six levels of 32 slots cover [32^6] us (~17.9 min) from the current
    position at microsecond resolution; deadlines beyond the horizon fall back
    to a binary heap and are popped from there directly. Slot lists are
    doubly linked, so a cancel unlinks its entry at once, and an entry off
    every list (fired, cancelled or cleared) can be re-armed: an owner that
    arms one timer over and over keeps one entry and allocates nothing per
    arm. Only cancelled far-heap entries stay behind, marked, until they
    surface.

    Pop order is {e exactly} the heap's: ties on time break on a global
    insertion sequence number, and the wheel-vs-fallback choice compares
    [(time, seq)] before committing, so swapping {!Heap} for [Wheel] under the
    engine cannot reorder a simulation.

    Pushes must not be earlier than the last popped time (they are clamped to
    it); the engine's clock discipline guarantees this. *)

type 'a t

type 'a handle
(** Identifies an inserted entry; used to cancel or re-arm it. *)

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

val rearm : 'a t -> 'a handle -> time:Time.t -> 'a -> 'a handle
(** [rearm t h ~time v]: {!cancel} [h], then link it again at [time]
    with payload [v], drawing its seq from the counter {!push} draws
    from, so pop order is exactly that of [cancel] then [push]. Returns
    the handle actually armed: [h] itself, allocating nothing, unless [h]
    is {!no_handle} or a far-heap entry, which still sits in the heap;
    then a fresh entry, as {!push} makes. *)

val cancel : 'a t -> 'a handle -> unit
(** O(1): the entry leaves its slot and its payload becomes the wheel's
    filler at once, so {!value} of a cancelled handle is the filler.
    Cancelling twice, after the entry fired, or {!no_handle} is a no-op. *)

val armed : 'a handle -> bool
(** The entry is due to fire: armed and neither fired, cancelled nor
    dropped by {!clear}. *)

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
    ({!seq}) is available alongside the payload; allocates nothing.
    {!no_handle} when the wheel is empty. The engine reads the seq of
    every timer it runs from it. *)

val seq : 'a handle -> int
(** The global sequence number of the entry's latest arm (the pop
    tiebreaker). *)

val value : 'a handle -> 'a
val time : 'a handle -> Time.t

val clear : 'a t -> unit
(** Drop every entry and return to {!create}'s state (sequence numbers
    restart at 0), keeping the storage already grown. Handles taken
    before the clear count as cancelled, their payloads released, and
    re-arm in place. *)

val take_or : 'a t -> default:'a -> 'a
(** {!pop} for the scheduler hot loop: returns the earliest live entry's
    value, or [default] when empty, allocating nothing. The popped
    entry's time is readable from {!pos}. *)
