(** The discrete-event simulation engine.

    Owns the virtual clock and two work sources: a FIFO of thunks to run at
    the current instant ({!post}) and a timer queue of thunks to run at a
    future instant ({!schedule}), an indexed 4-ary heap ({!Heap}). {!run}
    executes work in time order until quiescence (or a deadline), advancing
    the clock only when the ready FIFO is empty. Everything above
    (coroutines, network, disks) is built out of these two primitives. *)

type t

type timer
(** A cancellable scheduled thunk. Its owner may keep it and arm it again
    with {!reschedule} once it has fired or been cancelled: one timer
    entry serves every arm. *)

val unarmed : timer
(** A timer that was never scheduled: {!cancel} ignores it. Fills an empty
    timer slot without an [option] box. *)

(** {2 Choice points}

    Every unit of work the engine runs can carry a provenance tag. In
    normal operation tags are ignored (the ready FIFO and the timer queue
    fix the order); with a {!chooser} installed, each step with more than
    one enabled alternative becomes an explicit choice over the tagged
    transitions — the nondeterminism interface the schedule-space checker
    (lib/check) enumerates. *)

type tag =
  | Anon  (** unknown provenance; the explorer treats it as conflicting
              with everything *)
  | On_node of int  (** work of node [n]: its coroutines and its
                       housekeeping (disk, cpu, timers) *)
  | Link of int * int  (** delivery on the directed network link
                           [src -> dst] *)

type chooser = tag array -> int -> int
(** Called at every step where more than one transition is enabled, as
    [choose tags n]: the tags of the enabled set (ready thunks, or — when
    no ready work remains — every timer tied at the minimum deadline,
    hoisted) are [tags.(0)] to [tags.(n - 1)]. Must return an index below
    [n]; the engine runs that transition. [tags] is the engine's own
    buffer, valid only during the call: a chooser that keeps the set
    copies it ([Array.sub tags 0 n]). *)

val set_chooser : t -> chooser -> unit
(** Switch the engine into explore mode. Anything already posted is
    adopted (tagged {!Anon}). Install at most once per engine; {!reset}
    keeps it installed, so the explorer drives every run of an
    exploration through one engine.

    Explore-mode caveat: timers tied at the minimum deadline are hoisted
    into the choice set together, so a same-instant [cancel] of a tied
    sibling no longer suppresses its thunk — it runs as a (guarded) no-op.
    Its owner may even re-arm the timer before the hoisted thunk runs;
    {!is_firing} tells that stale thunk apart. Future timers cancel
    normally. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time 0. [seed] (default [1L]) roots all derived RNG
    streams. *)

val reset : t -> unit
(** Return to the state {!create} left it in — clock at 0, no posted
    work, no timers, root RNG back at its seed — keeping the storage
    already grown and any installed chooser. Nothing posted or scheduled
    before the reset stays reachable from the engine. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The engine's root RNG. Prefer {!split_rng} for per-component streams. *)

val split_rng : t -> Rng.t
(** A fresh independent stream derived from the root. *)

val post : t -> (unit -> unit) -> unit
(** Run a thunk at the current instant, after already-posted thunks.
    Equivalent to [post_tag t Anon]. *)

val post_tag : t -> tag -> (unit -> unit) -> unit
(** {!post} with provenance, so a chooser can tell transitions apart. *)

val schedule : t -> delay:Time.span -> (unit -> unit) -> timer
(** Run a thunk [delay] from now. A non-positive delay means "immediately
    after currently posted work". *)

val schedule_tag : t -> delay:Time.span -> tag -> (unit -> unit) -> timer
(** {!schedule} with provenance (surfaces when the timer comes due). *)

val reschedule : t -> timer -> delay:Time.span -> tag -> (unit -> unit) -> timer
(** {!schedule_tag}, re-arming the owner's timer [h] instead of allocating
    one; the timer's arm draws its place in the order exactly where a
    fresh {!schedule_tag} would. [h] must not be pending: it fired, was
    cancelled, or is {!unarmed}. Returns the timer actually armed, which
    the owner keeps for the next arm: [h] itself unless [h] is {!unarmed}. *)

val is_firing : t -> timer -> bool
(** [is_firing t h], read from inside a timer's thunk: the thunk runs for
    [h]'s latest arm. [false] for a stale thunk of an earlier arm, such
    as a timeout explore mode hoisted before its owner cancelled and
    re-armed [h]. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> timer
(** Like {!schedule} with an absolute deadline (clamped to now). *)

val cancel : t -> timer -> unit
(** Cancelling an already-fired or already-cancelled timer, or one armed
    before a {!reset}, is a no-op. *)

val pending : t -> int
(** Number of outstanding posted thunks + live timers. *)

val run : ?until:Time.t -> t -> unit
(** Execute until no work remains, or until the clock would pass [until]
    (the clock is then left at [until]). Exceptions raised by thunks
    propagate and abort the run. *)

val step : t -> bool
(** Execute one thunk (possibly advancing the clock first). [false] when no
    work remains. *)
