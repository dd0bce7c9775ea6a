(** Slowness propagation graphs (§3.3, Figure 2).

    An SPG aggregates a wait trace to node granularity: a directed edge
    [src -> dst] means some coroutine on node [src] waited on an event that
    depends on node [dst]. Each edge carries the quorum arity of the waits
    that produced it: an edge from a basic (1/1) wait is {e red} — a
    potential fail-slow propagation channel — while an edge from a
    QuorumEvent wait (k/n, k < n) is {e green} — tolerant to [n - k] slow
    peers.

    {!audit} mechanises the paper's definition of fail-slow fault-tolerant
    code: it reports every wait that gives a single remote node the power to
    stall the waiter. *)

type color = Red | Green

type edge = {
  src : int;
  dst : int;
  quorum_k : int;
  quorum_n : int;
  color : color;
  count : int;  (** number of waits aggregated into this edge *)
}

type t

val of_trace : Trace.t -> t
(** Build the SPG from all recorded waits. Waits with no remote peers
    (timers, local conditions) contribute no edges. Like {!waiter_edges}
    and {!audit}, it folds over the trace's columns and allocates per
    distinct edge, not per wait. *)

val edges : t -> edge list
(** Sorted by [(src, dst, quorum_k, quorum_n)]. *)

val nodes : t -> int list

val waiter_edges : ?allow:(node:int -> bool) -> Trace.t -> (string * edge) list
(** The same aggregation as {!of_trace} + {!edges}, but keyed by the
    waiting coroutine's name, so a checker can attribute an observed
    propagation edge back to the code that waited; sorted by
    (coroutine, edge key). [allow ~node] exempts waiter nodes as in
    {!audit} (e.g. clients that by design wait on the leader). *)

val to_dot : ?node_name:(int -> string) -> t -> string
(** Graphviz rendering; red/green edge colors as in Figure 2. *)

val pp : ?node_name:(int -> string) -> Format.formatter -> t -> unit
(** Human-readable edge list. *)

type violation = {
  v_wait : Trace.wait;  (** a representative occurrence (the first seen) *)
  v_peer : int;  (** the single node able to stall the waiter *)
  v_count : int;  (** occurrences folded into this site (1 when [~dedup:false]) *)
}

val audit : ?allow:(node:int -> bool) -> ?dedup:bool -> Trace.t -> violation list
(** Waits whose completion depends on a {e single} remote node — i.e.
    non-quorum remote waits, or degenerate quorums needing every child.
    [allow ~node] exempts waiters (e.g. clients, which by design wait on
    the leader; cf. Figure 2 discussion). Default allows none.

    By default repeated offences from one site — same
    [(node, coroutine, event label, quorum arity, peer)] — are folded into a
    single violation whose [v_count] is the occurrence count, sorted by that
    site key; only a reported site's representative is copied out of the
    trace. [~dedup:false] returns every occurrence in trace order. *)

val is_fail_slow_tolerant : ?allow:(node:int -> bool) -> Trace.t -> bool
(** [audit] is empty. *)
