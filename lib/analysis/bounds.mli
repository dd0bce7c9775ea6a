(** Front end 4: depfast-bounds — interprocedural boundedness and
    timeout coverage.

    The wait-structure passes ({!Spg_static}, {!Interproc}) certify
    {e which} events a coroutine may block on; this pass certifies the
    two obligations they leave open, the ones behind the paper's
    fail-slow root causes (b) and (c):

    - {b unbounded-growth} (via {!Growth}): an accumulation site
      reachable from remote-triggered code with no drain, truncation,
      or capacity check in the same call-graph component — the
      RethinkDB unbounded-backlog shape.
    - {b missing-deadline}: an untimed [Sched.wait] on an
      [Event.quorum] with no [Sched.timer] child or [or_] escape.
      Quorum waits are green to the wait-structure rules, so these are
      exactly the waits they cannot see; a fail-slow {e minority} still
      delays one without bound.
    - {b unbounded-retry}: a retry loop around a [Timed_out] remote
      call with neither an attempt bound nor a backoff sleep.

    Every clean site yields a machine-readable {!Growth.cert}
    boundedness certificate ([site, kind, verdict, evidence]); flagged
    sites yield a [Flagged] certificate alongside the finding, so the
    dynamic gauge sanitizer (lib/check) can cross-check live queue
    depths against exactly what was promised statically. Findings
    honour the usual [(* depfast-lint: allow rule-id *)] pragmas;
    certificates are unaffected by pragmas — allowing a defect
    acknowledges it, it does not make the site bounded. *)

val analyze : Growth.project -> Finding.t list * Growth.cert list
(** Findings are pragma-applied and sorted by location; certificates by
    site. *)

val analyze_files : string list -> Finding.t list * Growth.cert list
(** {!analyze} over the project loaded from these files. *)
