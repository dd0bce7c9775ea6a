(** Front end 3: whole-project interprocedural lock analysis.

    Runs over the whole {!Growth.project}, builds its own summary per
    top-level function (including the [and] halves of [let rec]: does
    it suspend, which mutexes it acquires) and resolves calls through
    the project's name tables ({!Growth.resolve_at}). Each body is walked once: the
    walk settles the function's own facts and every finding that needs
    no callee, and records its resolved calls in token order (callee,
    line, locks held). The summaries then reach their fixpoint over
    those calls alone, without a round cap, so suspension and lock facts
    flow across calls and modules however long the chain; the report
    replays the recorded calls in order. Whole-program rules:

    - {b lock-across-call}: a suspension point reached while a
      [Depfast.Mutex] is held — a direct suspension ({!Growth.wait_heads})
      inside a [Mutex.with_lock] body or between [Mutex.lock]/[unlock],
      or a call made there into a function that (transitively) suspends
      on an event: the RethinkDB hazard (paper §2).
    - {b lock-order-cycle}: a cycle in the static mutex
      acquisition-order graph (nested regions and held-across-call
      acquisitions), with a witness path in the message.

    Quorum arity is {!Spg_static}'s, over the quorum bindings of
    {!Growth.scan}.

    Soundness: this is a token-level heuristic, neither sound nor
    complete — names are resolved on their last two dot-segments and
    control flow is ignored (every call in a body is assumed reachable).
    It is a reviewer that never sleeps, not a verifier. Findings honour
    the same allow pragmas as every other pass. *)

val analyze : Growth.project -> Finding.t list
(** Findings are pragma-applied and sorted by location. *)

val analyze_files : string list -> Finding.t list
(** {!analyze} over the project loaded from these files. *)
