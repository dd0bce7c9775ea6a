(** RPC on the simulated network, integrated with DepFast events.

    A call returns immediately with a {!call} handle whose {!event} fires
    when the response arrives — the paper's [rpc_event]. Server handlers run
    as coroutines on the destination node and may wait (CPU, disk, nested
    RPCs).

    {!broadcast} is the framework-aware primitive of §2.3: it sends the same
    request to a set of replicas, hands back one {!Depfast.Event.t} quorum
    event, and — when the quorum is satisfied — {e abandons} the straggler
    calls, releasing their buffers instead of letting them back up. That
    behaviour can be disabled per-RPC instance for the ablation study. *)

type ('req, 'resp) t

type 'resp call

val create :
  Depfast.Sched.t ->
  ?latency:Sim.Dist.t ->
  unit ->
  ('req, 'resp) t
(** Every call charges a 512-byte buffer to the caller's memory until it
    completes or is abandoned ({!call}'s [bytes] overrides the size). *)

val reset : ('req, 'resp) t -> unit
(** Back to {!create}'s state for a world reused across runs, after its
    engine was reset: the network reset ({!Net.reset}), no call in
    flight, call ids from 1, zero counters. Attached nodes, served
    handlers and the settings made after {!create} stay; the nodes'
    memory charges are theirs to reset ({!Node.reset}). *)

val attach : ('req, 'resp) t -> Node.t -> unit
(** Register a node that only issues calls (a client): its responses are
    routed but it serves no requests. *)

val partition : ('req, 'resp) t -> int -> int -> unit
val heal : ('req, 'resp) t -> int -> int -> unit

val serve :
  ('req, 'resp) t -> node:Node.t -> handler:(src:int -> 'req -> 'resp option) -> unit
(** Install the node's request handler; it runs in a fresh coroutine per
    request on the node, costs nothing unless it performs waits/CPU work,
    and replies iff it returns [Some _]. The reply frame carries that
    option as the handler built it, and delivery stores the same value as
    the call's {!response}: a reply is boxed once, by the handler, and a
    handler that answers with a shared [Some] boxes nothing.
    Re-installing replaces. *)

val call :
  ('req, 'resp) t -> src:Node.t -> dst:int -> ?bytes:int -> 'req -> 'resp call
(** Send a request. [bytes] overrides the per-call request buffer charge. *)

val id : 'resp call -> int
(** The call's id, unique within its rpc. *)

val event : 'resp call -> Depfast.Event.t
val response : 'resp call -> 'resp option
(** [None] until the reply arrives; then the handler's own option. *)

val abandon : 'resp call -> unit
(** Give up on the call: its buffer is freed and the rpc forgets it, so
    a late response is dropped and counted by {!discarded_responses};
    then its event is abandoned, whose observers thus run after the
    free. A call that is over (answered or abandoned) frees nothing
    more.

    Three things free a call early: [abandon], {!abandon_id} and
    {!broadcast}'s straggler discard, which both go through [abandon].
    Abandoning the call's {!event} directly ([Depfast.Event.abandon],
    also through an enclosing compound) does not: the buffer stays
    charged until the response arrives, and that response is then
    dropped and counted like a late one. *)

val abandon_id : ('req, 'resp) t -> int -> unit
(** {!abandon} the call with this {!id}, if it is not finished yet
    (responded or abandoned); a no-op otherwise. A timer that holds the
    id instead of the call keeps nothing of the call alive. *)

val broadcast :
  ('req, 'resp) t ->
  src:Node.t ->
  dsts:int list ->
  arity:Depfast.Event.arity ->
  ?bytes:int ->
  ?label:string ->
  'req ->
  Depfast.Event.t * 'resp call list
(** Parallel calls to [dsts] plus a quorum event over their reply events.
    With {!set_discard_stragglers} on (default), satisfying the quorum
    abandons the unfinished calls. *)

val set_discard_stragglers : ('req, 'resp) t -> bool -> unit

val discarded_responses : ('req, 'resp) t -> int
(** Responses that arrived after their call was abandoned. *)

val outstanding_bytes : ('req, 'resp) t -> node:int -> int
(** Call-buffer bytes currently charged to [node]. *)

val net_totals : ('req, 'resp) t -> Net.stats
(** Network-wide counters for the underlying network. *)

val set_choice_mode : ('req, 'resp) t -> bool -> unit
(** Put the underlying network into schedule-exploration choice mode (see
    {!Net.set_choice_mode}). *)

val set_net_sanitizer : ('req, 'resp) t -> (string -> unit) -> unit
(** Install a FIFO-invariant violation reporter on the underlying network
    (see {!Net.set_sanitizer}). *)
