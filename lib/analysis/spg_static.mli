(** The depfast-spg pass: a static slowness-propagation map, and the
    whole-project form of the paper's §3.1 claim (a wait outside a
    quorum lets one slow peer stall you).

    For every wait site in the project, computes its {e static exposure
    set} — which fail-slow resource kinds ({!Propagation.fault}) can
    reach the waiting function through the call graph, in which role
    (["self"]: the seed lives in the same file; ["peer"]: a remote
    resource) — and its {e color} in the [Spg.color] sense: quorum-k
    waits ([Event.quorum]/[or_] bindings) are green, everything
    fate-sharing (bare events, [and_], condvar handoffs) is red.
    Timeout coverage comes from {!Growth.scan}, as in {!Bounds}:
    [wait_timeout], an [or_] binding, or an [Event.add ~child:(Sched.timer
    ...)] escape marks the wait covered.

    A function with no exposure that waits untimed on its own parameter
    is judged at its callers instead: each call handing it an event is a
    wait site there, coloured by what is passed and exposed by the
    caller's taint.

    Findings: {!Finding.red_exposure} for a red, exposed, uncovered wait
    — an [Error] when the waited event is an rpc completion
    ({!Propagation.rpc_completions}: directly, through the name or tuple
    component it was bound to, or returned by up to three project
    functions, {!Growth.returns}), a [Warning] otherwise.
    {!Finding.quorum_arity_mismatch}, the one pass that reports it, at
    each [Event.quorum] binding of {!Growth.scan}: an [Error] when its
    [Count] resolves to a constant above the children that flow in and
    the quorum does not escape (it can never fire), a [Warning] when its
    [Count] is a local bound to a tainted call (a green quorum whose k
    the slow resource controls). Certificates: one ["wait"] certificate per site and
    one ["propagation"] certificate per (wait x exposure) pair, each
    carrying the deterministic least-(fn, line) witness path from
    {!Propagation}. Pragma comments
    [(* depfast-lint: allow red-exposure ... *)] exempt findings as in
    every other pass. *)

val analyze :
  Growth.project ->
  Finding.t list * Growth.cert list * (string * (string * string) list) list
(** Findings (pragmas applied, sorted), certificates (sorted by site),
    and the per-file exposure summary: [(path, (fault-name, color)
    pairs)] — the static blast radius the dynamic cross-check in
    [lib/check] compares observed SPG edges against. *)

val analyze_files :
  string list ->
  Finding.t list * Growth.cert list * (string * (string * string) list) list
(** {!analyze} over the project loaded from these files. *)
