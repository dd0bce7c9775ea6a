(** DepFast events: named wait points.

    An event is a one-shot occurrence: it is created pending, {!fire}d at
    most once (firing is idempotent), and stays ready forever after. Every
    wait a program performs is a wait on some event, which is what makes
    waits visible to the tracer and the fail-slow audit (§3.3 of the paper).

    {b Basic events} ({!signal}) are fired by the framework: RPC completion,
    disk-write completion, a condition becoming true.

    {b Compound events} combine children. The paper's three compound types
    are all arity-parameterised quorums over their children:
    - [QuorumEvent] — ready when [k] of [n] children are ready;
    - [AndEvent] — ready when all children are ready ([k = n]);
    - [OrEvent] — ready when any child is ready ([k = 1]).

    Children may themselves be compound (nesting, §3.2). Children can be
    {!add}ed until the event fires; arities expressed as {!arity} are
    re-evaluated against the current child count. *)

type kind =
  | Signal  (** plain framework-fired event *)
  | Timer
  | Rpc
  | Disk
  | Quorum
  | And_
  | Or_

type arity =
  | Count of int  (** exactly [k] children ready *)
  | Majority  (** [n/2 + 1] of the current [n] children *)
  | All
  | Any

type t

val id : t -> int
val kind : t -> kind
val label : t -> string

val dummy : t (** An already-fired placeholder (id 0) for empty slots. *)

val signal : ?label:string -> unit -> t
(** A basic event, fired later by whoever created it. *)

val rpc_completion : ?label:string -> peer:int -> unit -> t
(** A basic event standing for "reply from node [peer] arrived". The peer is
    recorded so traces can attribute the wait to a remote node.
    @raise Invalid_argument unless [-1 <= peer < 2{^20} - 1] (-1: no peer). *)

val disk_completion : ?label:string -> node:int -> unit -> t
(** A basic event standing for "local disk I/O on [node] finished".
    @raise Invalid_argument unless [-1 <= node < 2{^20} - 1] (-1: no node). *)

val timer_kind : ?label:string -> unit -> t
(** A basic event fired by a timer. (Usually created via [Sched.timer].) *)

val quorum : ?label:string -> arity -> t
(** The paper's [QuorumEvent]. *)

val and_ : ?label:string -> unit -> t
(** The paper's [AndEvent]: ready when all children are. *)

val or_ : ?label:string -> unit -> t
(** The paper's [OrEvent]: ready when any child is. *)

val add : t -> child:t -> unit
(** [add parent ~child] attaches a child to a compound event. If the child
    is already ready it counts immediately (and may fire [parent]).
    @raise Invalid_argument on basic events or if [parent] already fired. *)

val children : t -> t list
(** Children in attachment order (compound events; [] for basic).
    Allocates a fresh list per call — hot paths should use {!child_count}
    or {!iter_children} instead. *)

val child_count : t -> int
(** Number of attached children, O(1) and allocation-free. *)

val iter_children : t -> (t -> unit) -> unit
(** Apply a function to each child in attachment order without
    materialising the child list. *)

val required : t -> int
(** Number of ready children needed for a compound to fire, resolved
    against the current child count; [1] for basic events. *)

val peers : t -> int list
(** All remote nodes the event transitively depends on (deduplicated, DFS
    pre-order). A basic event's single peer is read from the event (one
    cons per call). A compound's result is cached and invalidated when
    its subtree gains children, so repeated calls are O(1); callers must
    not mutate the returned list. *)

val stallers : t -> int list
(** Remote nodes that can {e single-handedly} prevent the event from firing:
    [p] stalls a basic event iff it is its peer, and stalls a compound iff,
    with every [p]-independent child fired, the required count is still not
    reached. Children [abandon]ed while the compound is still pending are
    counted as never-firing (they shrink the live quorum); abandonment seen
    under an already-fired compound is ignored. A wait is fail-slow
    fault-tolerant iff this list is empty (local waits aside) — the
    quantitative version of the paper's "only QuorumEvent waits" rule. *)

val can_stall : t -> int -> bool
(** [can_stall t p], for [p] among [peers t]: whether [p] is among
    [stallers t]. Allocates nothing, for folds over many waits. *)

val is_ready : t -> bool

val ready_children : t -> int

val fire : t -> unit
(** Mark a {b basic} event ready and propagate to compound parents.
    Idempotent. @raise Invalid_argument on compound events (they fire only
    via their children). *)

val on_fire : t -> (unit -> unit) -> unit
(** [on_fire t f]: run [f] when [t] fires (immediately if already ready).
    Used by the scheduler to resume waiters and by the framework to cancel
    straggler work once a quorum is met. Observers run in registration
    order; the first one registered takes the event's waiter slot, so it
    costs no allocation. *)

val drop_waiter : t -> (unit -> unit) -> unit
(** Unregister the fire observer [f] (compared physically), from the
    waiter slot or the observer list; a no-op if [f] is not registered.
    The scheduler parks a coroutine's once-built wake with {!on_fire} and
    drops it when the wait times out or the scheduler resets, so the
    event keeps nothing of a park that ended without its fire. *)

val rearm : t -> unit
(** Make a fired basic event pending again, for an owner that knows no
    one else holds it ({!Condvar.broadcast}'s unlent event): its observers
    ran and went at the fire, so it is as {!signal} made it, its id kept. *)

val abandon : t -> unit
(** Mark the event as no longer awaited (quorum satisfied elsewhere or wait
    timed out); observers registered via {!on_abandon} run once. Firing an
    abandoned event is a silent no-op. *)

val on_abandon : t -> (unit -> unit) -> unit
(** Framework hook: e.g. a Raft sender settles its in-flight count when
    the RPC layer abandons a call that timed out (§2.3); the RPC layer
    frees the call's buffer before it abandons the event. *)

val is_abandoned : t -> bool
