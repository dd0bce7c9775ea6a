(** The fail-slow sanitizer: runtime invariants checked over explored
    schedules.

    One instance shadows one run at a time ({!reset} starts the next):
    {!create} installs a {!Depfast.Sched} monitor that mirrors every
    coroutine's park/wake/resume protocol, and
    the check entry points compare that mirror against the event
    structures. Violations are reported under {!Analysis.Finding} rule ids
    ([lost-wakeup], [double-wake], [parked-on-abandoned],
    [unsatisfiable-wait], [quorum-overcount], [parked-at-quiescence]);
    other layers (the network's FIFO self-check, scenario invariants)
    funnel their violations through {!report}. *)

type t

type violation = {
  rule : string;  (** an {!Analysis.Finding} rule id *)
  coroutine : string;  (** [""] when not attributable to a coroutine *)
  node : int;  (** [-1] when not attributable to a node *)
  event_id : int;  (** [0] when no event is involved *)
  event_label : string;
  message : string;
}

type overflow = {
  o_label : string;
  o_file : string;  (** source file owning the container *)
  o_cap : int;  (** declared bound *)
  o_watermark : int;  (** highest sampled depth *)
}

val create : Depfast.Sched.t -> t
(** Installs the monitor on the scheduler (replacing any previous one).
    The shadow is flat (coroutines by cid, parked events in park order);
    the checks walk the parked events' children when they run. *)

val reset : t -> unit
(** Ready the instance for another run on its scheduler, after
    {!Depfast.Sched.reset}: the coroutine shadows are kept for the next
    run to re-initialise, and nothing of the run is: no coroutine, parked
    event, gauge or violation (none of its events stays reachable). *)

val add_gauge :
  t -> label:string -> file:string -> cap:int -> (unit -> int) -> unit
(** Register a queue-depth gauge over a live container. [file] is the
    source file owning the container (certificate domain); [cap] its
    declared bound. The explorer samples all gauges at every choice
    point and at terminal states. *)

val sample_gauges : t -> unit
(** Read every gauge, update watermarks, and report a
    [queue-gauge-overflow] violation (once per gauge per run) when a
    watermark exceeds its declared cap. *)

val gauge_overflows : t -> overflow list
(** Gauges whose watermark exceeded the cap, sorted — input to the
    explorer's boundedness-certificate cross-check. *)

val report :
  t ->
  rule:string ->
  ?coroutine:string ->
  ?node:int ->
  ?event_id:int ->
  ?event_label:string ->
  string ->
  unit
(** Record a violation from an external checker (network FIFO sanitizer,
    scenario invariants, audit cross-checks). *)

val check_live : t -> unit
(** Invariants sound at {e any} point of a run: compound ready-counter
    consistency (no double-fire) and lost wakeups (parked on a ready
    event). *)

val check_quiescent : t -> unit
(** {!check_live} plus the parked-forever family — only sound when the
    engine is truly quiescent ([Engine.pending = 0]): no remaining work
    can fire events or rescue a waiter by timeout. *)

val violations : t -> violation list
(** In report order. *)

val parked_count : t -> int
(** Coroutines currently parked (for tests). *)
