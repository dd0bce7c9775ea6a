(** The depfast-spg pass: a static slowness-propagation map.

    For every wait site in the project, computes its {e static exposure
    set} — which fail-slow resource kinds ({!Propagation.fault}) can
    reach the waiting function through the call graph, in which role
    (["self"]: the seed lives in the same file; ["peer"]: a remote
    resource) — and its {e color} in the {!Spg.color} sense: quorum-k
    waits ([Event.quorum]/[or_] bindings) are green, everything
    fate-sharing (bare events, [and_], condvar handoffs) is red.
    Timeout coverage comes from {!Growth.waits}, as in {!Bounds}:
    [wait_timeout], an [or_] binding, or an [Event.add ~child:(Sched.timer
    ...)] escape marks the wait covered.

    Findings: {!Finding.red_exposure} for a red, exposed, uncovered
    wait; {!Finding.unreached_mitigation} for a green quorum whose
    [Count] arity flows from a tainted call. Certificates: one
    ["wait"] certificate per site and one ["propagation"] certificate
    per (wait x exposure) pair, each carrying the deterministic
    least-(fn, line) witness path from {!Propagation}. Pragma comments
    [(* depfast-lint: allow red-exposure ... *)] exempt findings as in
    every other pass. *)

type color = Red | Green

val color_name : color -> string
(** ["red" | "green"], matching [Spg.color] naming. *)

type exposure = {
  x_fault : Propagation.fault;
  x_role : string;  (** ["self" | "peer"] *)
  x_taint : Propagation.taint;
}

type wait = {
  w_file : string;
  w_line : int;
  w_fn : string;
  w_site : string;
  w_color : color;
  w_covered : bool;
  w_exposures : exposure list;
}

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
