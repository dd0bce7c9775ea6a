(** Machine-readable findings shared by the static passes and the
    schedule-space checker. A finding is a rule violation at a source
    location or at an event; [allowed] findings were exempted by a
    pragma and do not gate CI. *)

type severity = Error | Warning | Info

type location =
  | File of { file : string; line : int }
  | Node of { event_id : int; event_label : string }

type t = {
  rule : string;
  severity : severity;
  loc : location;
  message : string;
  allowed : bool;
}

(** {2 Rule identifiers} *)

val unknown_pragma : string
(** A [(* depfast-lint: allow ... *)] pragma naming a rule id that is
    not in {!static_rules}: a retired or misspelt id, or one only the
    dynamic checker reports, would otherwise silently allow nothing. *)

val lock_across_call : string
(** A suspension point reached while a [Depfast.Mutex] is held — a
    direct [Sched.wait]/[Condvar.wait] in the locked region, or a call
    into a function that (transitively) suspends on an event: the
    scheduler hazard behind RethinkDB's fail-slow leader (paper, §2). *)

val lock_order_cycle : string
(** A cycle in the static mutex acquisition-order graph, including
    locks held across calls into other modules — a potential deadlock. *)

val quorum_arity_mismatch : string
(** A [Quorum (Count k)] whose k (resolved through constants, possibly
    cross-module) exceeds the number of children that statically flow
    into it; or whose k flows from a function tainted by a fail-slow
    resource, so the mitigation (waiting for only k of n) is itself
    controlled by the slow resource. *)

val unbounded_growth : string
(** Boundedness (the depfast-bounds pass): an accumulation site
    (Queue/Hashtbl/Buffer/[Rlog.append]/list cons) reachable from
    remote-triggered code with no drain, truncation, or capacity check
    anywhere in the same call-graph component — the unbounded-backlog
    shape behind the paper's RethinkDB fail-slow leader. *)

val missing_deadline : string
(** Timeout coverage: an untimed [Sched.wait] on a quorum with no
    [Sched.timer]/[Event.or_] escape wired in — a remote minority can
    still delay it without bound even though the wait is green. *)

val unbounded_retry : string
(** A self-recursive retry around a timed-out remote call with neither
    an attempt bound nor a backoff sleep: under a fail-slow peer it
    turns into a tight, unbounded resend loop. *)

val unsafe_shared_state : string
(** Domain safety (the depfast-domains pass): a top-level mutable cell
    written outside any [Depfast.Mutex] region or engine-owned record —
    a data race waiting to happen once the tree runs on OCaml 5
    domains. *)

val red_exposure : string
(** Slowness propagation (the depfast-spg pass): a fate-sharing wait —
    red in the {!Spg.color} sense — whose enclosing function is
    statically reachable from a fail-slow resource site (disk, net,
    declared CPU cost, or remote-triggered growth) and carries no
    timeout escape: the static blast radius of that resource includes
    this wait, with nothing bounding the delay. An [Error] when the
    waited event is an rpc completion ([Event.rpc_completion],
    [Rpc.event]), a [Warning] otherwise. *)

val spg_stale_edge : string
(** Dynamic staleness cross-check: a module carries a static red
    exposure for the injected fault kind, yet no explored schedule
    ever observed a red SPG edge there. Non-gating — over-approximate
    static edges are expected — but worth an eye for dead mitigation
    paths or over-wide summaries. *)

(** Dynamic rules, reported by the schedule-space checker ([lib/check])
    rather than by a static pass. *)

val lost_wakeup : string
(** A coroutine is parked on an event that is ready, yet no wakeup was
    delivered — the runtime's park/wake protocol broke. *)

val double_wake : string
(** More than one wakeup delivered for a single park. *)

val parked_on_abandoned : string
(** A coroutine parked (with no pending timeout) on an abandoned event:
    nothing can ever resume it. *)

val unsatisfiable_wait : string
(** A parked compound wait that can no longer gather enough ready
    children (e.g. a [Count k] quorum wired to fewer than [k] live
    children) — the dynamic cousin of {!quorum_arity_mismatch}. *)

val quorum_overcount : string
(** A compound event's packed ready counter disagrees with a recount of
    its children — a double-fire or lost decrement. *)

val net_fifo_violation : string
(** Per-link FIFO broken: a message overtook an earlier one on the same
    directed link. *)

val parked_at_quiescence : string
(** A coroutine is still parked when the engine has no work left: nothing
    can ever resume it. Reported when none of the more specific rules
    ({!lost_wakeup}, {!parked_on_abandoned}, {!unsatisfiable_wait})
    explains the hang — e.g. a pending signal nobody is left to fire. *)

val dynamic_red_wait : string
(** A wait observed at run time whose completion one remote node can
    stall — [Spg.audit] at a terminal state of an explored schedule. *)

val invariant_violation : string
(** A scenario's terminal-state invariant (e.g. at most one Raft leader
    per term, committed log prefixes agree) does not hold. *)

val certificate_mismatch : string
(** The static wait-structure certificate and the dynamic evidence
    disagree: a module the static passes certified clean produced a
    dynamic violation. Either the static analysis missed a flow or the
    runtime broke an assumption — both are reportable bugs. *)

val queue_gauge_overflow : string
(** A queue/log depth gauge registered with the sanitizer grew
    monotonically past its declared cap during exploration — dynamic
    evidence of an unbounded (or under-provisioned) accumulation. *)

val rules : (string * string) list
(** All rule ids with one-line descriptions: {!static_rules}, then the
    dynamic checker's. *)

val static_rules : (string * string) list
(** The ids the static passes report, and so the only ones an allow
    pragma can exempt. *)

val v : rule:string -> severity:severity -> loc:location -> string -> t

val severity_name : severity -> string
val loc_string : location -> string
val to_string : t -> string

val unallowed : t list -> t list
(** The findings not exempted by a pragma. *)

val gating : strict:bool -> t list -> t list
(** The unallowed findings that should fail the build: [Error]s only by
    default, every unallowed finding under [~strict:true]. *)

val to_json : t -> string
(** One finding as a JSON object (single line, fields escaped). *)

val stable_id : pass:string -> t -> string
(** A 48-bit FNV-1a hex id over (pass, rule, location, message): stable
    across runs and path orderings, distinct per concrete finding. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON literal. *)

val by_location : t -> t -> int
(** Comparator for stable reporting order: (file, line, rule, severity,
    message) — total enough that sorted output cannot depend on the order
    sources were discovered in. *)
