(** §5 extension: a fail-slow failure detector + mitigation.

    The paper's future-work section proposes building failure detectors on
    DepFast's trace points and, when the {e leader} is the fail-slow
    component, triggering a re-election "to turn the fail-slow leader into a
    fail-slow follower, which is well tolerated".

    This detector runs on each server. While the server leads, it samples
    the commit-latency trace signal ({!Server.commit_latency_ewma}) every
    200 ms, learns a baseline over the first 10 samples, and — when the
    current value exceeds 4 × baseline for 2 consecutive checks — hands
    leadership to the most caught-up follower. The fail-slow node keeps
    serving as a follower, where quorum waits mask it. *)

type t

val attach : Server.t -> t
(** Spawns the monitoring coroutine on the server's node. *)

val mitigations : t -> int
(** Number of leadership transfers this detector has triggered. *)

val baseline : t -> float
(** Learned baseline commit latency in microseconds (0 until learned). *)
