(** The schedule-space explorer: bounded, DPOR-pruned enumeration of
    interleavings by stateless re-execution.

    With a fixed engine seed a run is fully determined by its sequence of
    chooser decisions, so a schedule {e is} its decision prefix. The
    explorer DFSes over prefixes: each run replays its prefix, then takes
    default decisions to a terminal state while recording every enabled
    set it passed; backtracking re-runs with the prefix extended by an
    alternative decision. Alternatives outside the persistent set — the
    conflict closure of the taken transition, where two transitions
    conflict when they touch the same node — are skipped and counted as
    {e pruned}.

    The heuristic is exact for share-nothing message-passing scenarios
    (cross-node effects travel through [Link]-tagged deliveries, which
    conflict on their destination); scenarios with genuinely shared state
    put all coroutines on one node, which disables pruning and falls back
    to full enumeration. *)

type budget = {
  max_schedules : int;  (** explored runs *)
  max_steps : int;  (** choice points per run before truncation *)
  max_depth : int;  (** no new backtrack points past this choice index *)
}

val default_budget : budget
(** 2000 schedules, 4000 steps/run, depth 200. *)

type run = {
  r_steps : Sim.Engine.tag array array;
      (** enabled sets at choice points past the prefix *)
  r_nsteps : int;
  r_truncated : bool;
  r_quiescent : bool;  (** engine fully drained (no posted work, no timers) *)
  r_violations : Sanitizer.violation list;
  r_overflows : Sanitizer.overflow list;
      (** queue-depth gauges whose watermark passed the declared cap *)
  r_spg_edges : (string * Depfast.Spg.edge) list;
      (** observed slowness-propagation edges attributed (via the
          scenario's provenance map) to the waiter's source file; only
          collected when the scenario injects a fault *)
}

type state
(** What a run executes on: one engine (with the explorer's chooser
    installed), scheduler, sanitizer and wait trace, and the world of the
    scenario it last ran ({!Scenario.t}'s [make]). A driver builds one
    per exploration (per worker, in parallel) and every run resets it,
    the world included, so re-running a schedule allocates only what the
    scenario's run does. *)

val fresh_state : unit -> state

val run_one : ?state:state -> Scenario.t -> prefix:int array -> budget:budget -> run
(** Execute a single schedule: replay [prefix], then default decisions.
    [prefix = [||]] is the program-order schedule — what a plain test run
    would see. The run starts by resetting [state] (default: a fresh
    one), which drops everything the previous run left in it, even if
    that run raised; the scenario's world is built on the state at its
    first run there and reset in place at every later one. The result is
    the same on a fresh state as on one reused after any other run. *)

type result = {
  scenario : string;
  schedules : int;  (** schedules actually executed *)
  pruned : int;  (** enabled alternatives skipped as independent (DPOR) *)
  truncated_runs : int;
  nonquiescent_runs : int;  (** runs stopped by deadline, not quiescence *)
  deepest : int;  (** most choice points seen in one run *)
  complete : bool;  (** frontier exhausted within the schedule budget *)
  findings : Analysis.Finding.t list;  (** deduplicated, sorted *)
}

val explore :
  ?budget:budget -> ?certs:Certificate.t -> ?jobs:int -> Scenario.t -> result
(** Enumerate schedules. Each distinct violation site is reported once,
    annotated with how many schedules exhibited it; with [certs], any
    dynamic violation whose coroutine provenance maps into a
    certified-clean file additionally raises [certificate-mismatch].
    Queue-depth gauges registered by the scenario are sampled at every
    choice point and terminal state; an overflow whose file is
    {!Certificate.bounded_clean} also raises [certificate-mismatch].
    Certificates only add these cross-check findings: the schedules run,
    the prune count and [complete] are the same with or without them.

    [jobs > 1] explores the frontier on that many OCaml 5 domains with
    work-stealing deques of schedule prefixes; each worker keeps its own
    run {!state} and accumulators, merged deterministically at join.
    Because the frontier reachable from the root is one fixed
    tree and every aggregate is order-independent (sums, maxima, keyed
    unions, canonical "first" ranks over the explored-prefix set),
    parallel and serial runs report identical schedule totals and
    identical findings on every frontier-complete scenario. Scenarios
    that declare [par_safe = false], or whose modules carry an
    unsafe-shared-state verdict in [certs], are forced back to one
    domain — the static domains pass is what certifies the parallelism
    safe. *)

(**/**)

val conflicts : Sim.Engine.tag -> Sim.Engine.tag -> bool
val persistent_set : Sim.Engine.tag array -> int -> bool array
