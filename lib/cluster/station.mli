(** An m-server FIFO queueing station.

    Models a contended hardware resource (CPU cores, a disk spindle): jobs
    queue, up to [servers] are in service simultaneously, and service time is
    the job's nominal work scaled by the station's current {e speed factor}
    (1.0 = nominal; 20.0 = the cgroup-limited "5% CPU" fail-slow fault).

    A coroutine waits on its own job with {!run}, which the tracer sees
    like any other wait point; {!submit} makes the completion an
    {!Depfast.Event.t} to wire into other events. *)

type t

val create : Depfast.Sched.t -> ?servers:int -> name:string -> unit -> t
(** [servers] defaults to 1. *)

val reset : t -> unit
(** Back to {!create}'s state at the engine's current time: idle, speed
    1.0, nothing queued, a fresh utilization window, every in-service
    job's completion cancelled. For a world reused across runs, after its
    engine was reset, or mid-run; the memory wired by {!set_memory} stays.
    No coroutine waiting on a dropped job ({!run}) resumes. *)

val set_speed : t -> float -> unit
(** Service-time multiplier for jobs {e starting} from now on. *)

val speed : t -> float

val set_memory : t -> Memory.t -> unit
(** Jobs starting from now on also take [m]'s memory-pressure penalty
    ({!Memory.penalty}) as a multiplier. Until this is called the
    penalty is 1.0. *)

val submit : t -> ?event:Depfast.Event.t -> work:Sim.Time.span -> unit -> Depfast.Event.t
(** Enqueue a job of nominal duration [work]; the returned event fires when
    it completes. [event] lets the caller supply the completion event (e.g.
    a [Disk]-kind event for tracing); default is a fresh signal. Jobs start
    in submission order and at most [servers] are in service at once,
    including jobs submitted from a completion event's observers. *)

val run : t -> work:Sim.Time.span -> unit
(** Coroutine-context {!submit} and wait, allocating nothing: the job calls
    the coroutine's wake where it would fire an event, and the coroutine
    holds ({!Depfast.Sched.hold}) on the station's event, named after it. *)

val charge : t -> work:Sim.Time.span -> unit
(** A job nobody waits on: no event, no wake. *)

val queue_length : t -> int
(** Jobs waiting (excluding those in service). *)

val busy_servers : t -> int

val utilization : t -> float
(** Mean fraction of servers busy since the last {!reset_stats} (or
    creation), from the internal busy-time integral. *)

val reset_stats : t -> unit
(** Restart the utilization window and the completed-job counter. *)

val completed_jobs : t -> int
