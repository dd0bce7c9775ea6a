(** §5 extension: fail-slow leader detection + mitigation via leadership
    transfer.

    A CPU fail-slow fault is injected into the {e leader} mid-run. Without
    mitigation, every request suffers (the known algorithmic weakness of
    leader-based consensus — cf. Copilot). With the detector attached, the
    commit-latency trace signal crosses the threshold, leadership transfers
    to a healthy follower, and throughput recovers; the fail-slow node keeps
    serving as a follower, which DepFastRaft tolerates. *)

val print : ?params:Params.t -> unit -> unit
