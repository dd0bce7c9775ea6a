(** The simulated datacenter network.

    Point-to-point message delivery with per-pair latency sampled from a
    distribution, plus each endpoint's NIC delay (the `tc netem` fault adds
    400 ms there). Supports partitions. Messages to or from dead or
    partitioned nodes are silently dropped — as on a real network, senders
    learn nothing.

    Endpoints live in a direct array indexed by node id, and each directed
    link owns a pooled outbox: a FIFO ring of in-flight messages drained by
    one reusable delivery callback, so steady-state sends allocate no
    per-message closure. *)

type 'msg t

type stats = { delivered : int; dropped : int; units : int }
(** [units] is the caller-supplied bytes-equivalent accounting (see
    {!send}) summed over delivered messages. *)

val create :
  Depfast.Sched.t ->
  ?latency:Sim.Dist.t ->
  filler:'msg ->
  unit ->
  'msg t
(** [latency] is the one-way delay in microseconds; default
    [Shifted (120, Exponential 30)] — a ~150 us same-AZ RTT/2. Its draws
    come from a stream split off the engine's at creation. [filler]
    overwrites every ring slot a message leaves (delivered, dropped or
    {!reset}), so the network keeps no message alive once it is out of
    flight: a constant constructor of the message type costs nothing. *)

val reset : 'msg t -> unit
(** Back to {!create}'s state for a world reused across runs, after its
    engine was reset: the latency stream re-split from the engine's
    root, no partition, nothing in flight, zero counters. Registered
    endpoints, the links built so far and the settings made after
    {!create} ({!set_choice_mode}, {!set_sanitizer}) stay. *)

val register : 'msg t -> Node.t -> handler:(src:int -> 'msg -> unit) -> unit
(** Attach a node and its delivery handler. The handler runs as an engine
    callback (not a coroutine); it should hand off to coroutines quickly.
    Registering the same node again replaces its handler.
    @raise Invalid_argument if a different node already holds the id. *)

val nodes : 'msg t -> Node.t list
(** Registered nodes in id order. The sorted list is cached and only
    rebuilt after a {!register}. *)

val send : 'msg t -> units:int -> src:int -> dst:int -> 'msg -> unit
(** Fire-and-forget. Sampled delay = latency + src NIC + dst NIC. Dropped if
    either end is dead or the pair is partitioned (checked at delivery time
    for dst, at send time for src). [units] (0 for none) is an opaque
    bytes-equivalent weight accumulated into {!stats} on delivery. *)

val partition : 'msg t -> int -> int -> unit
(** Cut both directions between two nodes. *)

val heal : 'msg t -> int -> int -> unit

val delivered_count : 'msg t -> int

val totals : 'msg t -> stats
(** Network-wide delivery counters. *)

val stats : 'msg t -> src:int -> dst:int -> stats
(** Counters for one directed link; all-zero if the link never carried a
    message. *)

(** {2 Schedule exploration} *)

val set_choice_mode : 'msg t -> bool -> unit
(** In choice mode the network stops sampling latency: a sent message is in
    flight immediately and each non-empty directed link posts exactly one
    delivery transition (tagged [Engine.Link (src, dst)]) at a time, so the
    engine's chooser decides the interleaving of deliveries across links —
    while per-link FIFO order is preserved. Flip before any traffic flows;
    intended for the schedule-space checker's per-run engines. *)

val set_sanitizer : 'msg t -> (string -> unit) -> unit
(** Install a violation reporter. The network self-checks the per-link FIFO
    invariant at every delivery (send-sequence numbers strictly increase on
    each directed link) and reports a description on violation. *)
