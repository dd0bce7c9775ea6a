(** The DepFast runtime: coroutines + cooperative scheduler (§3.3).

    Coroutines are implemented with OCaml 5 effect handlers: user code is
    plain direct-style OCaml; {!wait}, {!sleep} and {!yield} perform effects
    that suspend the coroutine and hand control back to the scheduler, which
    resumes it when the awaited event fires. This is the library's answer to
    callback spaghetti: logic reads synchronously, yet nothing blocks.

    A scheduler drives one {!Sim.Engine.t}; in a simulation one scheduler
    hosts the coroutines of every simulated node, each tagged with its node
    id for tracing. *)

type t

val create : ?trace:Trace.t -> Sim.Engine.t -> t
val reset : t -> unit
(** Forget every coroutine: ids restart at 1 and none is running. After
    {!Sim.Engine.reset} of its engine, one scheduler (with its monitor and
    trace) serves many runs; the trace is left as it is. Every context
    built is kept, parked ones too, and nothing of the run: no wake handed
    out before the reset resumes a later coroutine. *)

val engine : t -> Sim.Engine.t
val trace : t -> Trace.t

(** {2 Runtime monitoring}

    Observation hooks for the schedule-space sanitizer (lib/check): the
    coroutine lifecycle and the park/wake/resume protocol around every
    suspension. With no monitor installed (the default) each hook site is
    a single branch. *)

type wake = Wake_fire | Wake_timeout

type monitor = {
  on_spawn : cid:int -> node:int -> name:string -> unit;
  on_park : cid:int -> node:int -> name:string -> Event.t -> unit;
      (** the coroutine suspended on a not-yet-ready event *)
  on_wake : cid:int -> Event.t -> wake -> unit;
      (** the wakeup was delivered (a resume was posted, or the wait's
          timeout fired) *)
  on_resume : cid:int -> unit;  (** the continuation actually runs again *)
  on_done : cid:int -> unit;  (** the body returned *)
}

val set_monitor : t -> monitor option -> unit

val spawn : t -> ?node:int -> ?name:string -> (unit -> unit) -> unit
(** Start a coroutine. [node] tags it for tracing (inherited by coroutines
    it spawns if they pass no tag of their own — see {!spawn_here}).
    The body runs when the engine next dispatches; exceptions escaping the
    body abort the simulation. *)

val spawn_on : t -> node:int -> ?name:string -> (unit -> unit) -> unit
(** {!spawn} with the node tag passed bare, so that a spawn on a node
    boxes no option for it; {!spawn} itself goes through here. *)

val spawn_here : t -> ?name:string -> (unit -> unit) -> unit
(** Spawn inheriting the calling coroutine's node tag. Must be called from
    inside a coroutine. *)

type outcome = Ready | Timed_out

(** Operations below must run inside a coroutine of this scheduler. *)

val wait : t -> Event.t -> unit
(** Suspend until the event fires (returns immediately if already ready). *)

val wait_timeout : t -> Event.t -> Sim.Time.span -> outcome
(** Like {!wait} with an upper bound. On [Timed_out] the event is left
    pending (not abandoned); callers decide (see [Event.abandon]). *)

val wake : t -> unit -> unit
(** The running coroutine's own wake (no allocation), for its {!hold}. *)

val hold : t -> Event.t -> unit
(** A held park: suspend on the event without registering on it, until
    the coroutine's {!wake} is called once. Traced and monitored as a
    {!wait} on the event that then fired; a dropped wake parks for good. *)

val sleep : t -> Sim.Time.span -> unit
(** Suspend for the span (a negative one counts as 0). Re-arms the
    coroutine's own timer entry: no allocation beyond the continuation.
    Untraced, and no {!monitor} hook sees it. *)

val yield : t -> unit
(** Reschedule behind other runnable work at the same instant. Like
    {!sleep}, it allocates only the continuation and is untraced. *)

val timer : t -> Sim.Time.span -> Event.t
(** An event that fires after the given delay. *)

val current_node : t -> int
(** Node tag of the running coroutine; -1 outside coroutines/untagged. *)

val current_coroutine : t -> string
(** Name of the running coroutine, [""] outside one. *)

val now : t -> Sim.Time.t

val run : ?until:Sim.Time.t -> t -> unit
(** Drive the engine (see {!Sim.Engine.run}). *)
