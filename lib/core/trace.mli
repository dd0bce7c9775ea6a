(** Event trace points (§3.3).

    Every wait executed by a coroutine is recorded with the identity of the
    waiter (coroutine + node), the event waited on, its quorum arity at wait
    time, and the wait's duration and outcome. Traces feed the slowness
    propagation graph ({!Spg}) and the fail-slow audit, and are the hook for
    the paper's §5 failure detectors.

    Records live in a ring of flat columns: recording a wait writes its
    fields in place and allocates no per-wait record. The columns start
    small and double on demand up to [capacity]; once the ring is full the
    {e oldest} record is overwritten ({!dropped} counts how many). Readers
    address records by index, oldest first, and materialise a {!wait}
    snapshot only when they keep one.

    Peer and staller sets are derived {e lazily}: a record holds the event,
    and {!peers}/{!stallers} analyse it on read ([Event.peers] is cached on
    the event). For waits that ended [Ready] the root event is frozen
    (children cannot be added to a fired compound), so lazy evaluation
    matches eager capture; for [Timed_out] waits on still-live events the
    sets reflect the structure at read time, which is at least as current as
    record time. *)

type outcome = Ready | Timed_out

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] bounds the ring (default 65536 records); the columns are
    allocated on the first recorded wait, small, and double as needed. *)

val enable : t -> unit
val disable : t -> unit
val is_enabled : t -> bool

val record :
  t ->
  cid:int ->
  node:int ->
  coroutine:string ->
  Event.t ->
  quorum_k:int ->
  quorum_n:int ->
  t_start:Sim.Time.t ->
  t_end:Sim.Time.t ->
  outcome ->
  unit
(** Append one wait (a no-op while disabled): [cid] and [node] name the
    waiter ([node] is -1 if untagged), [coroutine] is its name (held, not
    copied), and [quorum_k]/[quorum_n] are the children needed/attached at
    wait time (1/1 for basic events). *)

val wait_count : t -> int
(** Records currently held (≤ capacity). *)

val dropped : t -> int
(** Records overwritten because the ring was full. *)

val clear : t -> unit
(** Drop all records (and reset {!dropped}), releasing their events; the
    grown columns are kept for reuse. *)

val on_wait : t -> (int -> unit) -> unit
(** Streaming subscription: called with the index of every subsequently
    recorded wait (the newest, [wait_count t - 1]), including waits that
    will later be overwritten in the ring. Used by online failure
    detectors and {!Trace_stats.attach}. *)

(** {2 Reading a record by index}

    [i] ranges over [0 .. wait_count t - 1], oldest first; an index stays
    valid until the next {!record} or {!clear}.
    @raise Invalid_argument on an index out of range. *)

val cid : t -> int -> int
val node : t -> int -> int
val coroutine : t -> int -> string
val event : t -> int -> Event.t
val quorum_k : t -> int -> int
val quorum_n : t -> int -> int
val t_start : t -> int -> Sim.Time.t
val t_end : t -> int -> Sim.Time.t
val outcome : t -> int -> outcome

(** {2 Snapshots} *)

type wait = {
  cid : int;  (** waiting coroutine *)
  node : int;  (** node the coroutine runs on; -1 if untagged *)
  coroutine : string;  (** coroutine name *)
  event : Event.t;  (** the event waited on *)
  quorum_k : int;  (** children needed (1 for basic events) *)
  quorum_n : int;  (** children attached (1 for basic events) *)
  t_start : Sim.Time.t;
  t_end : Sim.Time.t;
  outcome : outcome;
}
(** One record, copied out of the ring. *)

val get : t -> int -> wait

val waits : t -> wait list
(** In recording order, oldest first. *)

val event_id : wait -> int
val event_kind : wait -> Event.kind
val event_label : wait -> string

val peers : wait -> int list
(** Remote nodes the event depends on (cached on the event). *)

val stallers : wait -> int list
(** Remote nodes able to single-handedly stall the wait
    (see {!Event.stallers}); analysed on each call. *)
