(** Front end 3: whole-project interprocedural event-flow analysis.

    The per-file lint ({!Source_lint}) stops at module boundaries: a
    bare remote completion returned from another file, smuggled through
    a record field, or a suspension hidden behind a call are all
    invisible to it. This pass runs over the whole {!Growth.project},
    builds a {!Summary.t} per top-level function (including the [and]
    halves of [let rec]: returns/accepts a remote completion event,
    suspends, acquires mutexes), resolves calls through the project's
    [Module.fn] index ({!Growth.resolve}), and iterates the
    summaries to a fixpoint so facts flow through returns, tuple
    components, record fields and arguments. Whole-program rules:

    - {b cross-module-red-wait}: a bare rpc/disk completion produced in
      one module and [Sched.wait]ed in another (directly, via a record
      field, or via an argument passed to a waiting callee). Same-file
      facts are deliberately left to {!Source_lint} — no double
      reporting.
    - {b lock-across-call}: a call made while holding a [Depfast.Mutex]
      into a function that (transitively) suspends on an event.
    - {b lock-order-cycle}: a cycle in the static mutex
      acquisition-order graph (nested regions and held-across-call
      acquisitions), with a witness path in the message.
    - {b quorum-arity-mismatch}: [Event.quorum (Count k)] where [k]
      (resolved through constants, possibly cross-module) exceeds the
      children that statically flow in via [Event.add].

    Soundness: this is a token-level heuristic, neither sound nor
    complete — names are resolved on their last two dot-segments,
    record fields merge by name across types, and control flow is
    ignored (every call in a body is assumed reachable). It is a
    reviewer that never sleeps, not a verifier. Findings honour the
    same [(* depfast-lint: allow rule-id *)] pragmas as the per-file
    pass. *)

val analyze : Growth.project -> Finding.t list
(** Findings are pragma-applied and sorted by location. *)

val analyze_files : string list -> Finding.t list
(** {!analyze} over the project loaded from these files. *)
