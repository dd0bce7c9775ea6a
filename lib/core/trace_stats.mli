(** §5 extension: observability through the event interface.

    "The events in principle provide trace points needed by existing
    monitoring techniques and the traces can be used for performance
    analysis." This module aggregates a wait trace into per-key wait-time
    histograms — by event label, by waiting node, or by (node, peer) pair —
    the raw material for dashboards, detectors, and the per-RPC latency
    matrices that tools like IASO build. Works online (subscribe to a live
    trace) or offline (fold over a recorded one), with the same result.
    A wait is folded in straight from the trace's columns; a key's name is
    rendered once, when the key is first seen. *)

type t

type key =
  | By_label  (** e.g. all ["replicate"] quorum waits together *)
  | By_node  (** all waits performed by each node *)
  | By_edge  (** (waiting node, remote peer) pairs — per-link latency *)

val create : key -> t

val attach : t -> Trace.t -> unit
(** Subscribe to a live trace: every future wait is folded in. *)

val of_trace : key -> Trace.t -> t
(** Offline aggregation of everything recorded so far. *)

val keys : t -> string list
(** Sorted. Edges render as ["n3->n7"]. *)

val histogram : t -> string -> Sim.Hist.t option

val timeouts : t -> string -> int
(** Waits under this key that ended in [Timed_out]. *)
