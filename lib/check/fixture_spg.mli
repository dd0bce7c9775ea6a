(** SPG blind-spot fixture: a net-slow source whose event escapes
    through a module-level mailbox to a waiter the static call graph
    never connects it to — the seeded [certificate-mismatch] for the
    slowness-propagation cross-check. *)

val spawn : Depfast.Sched.t -> unit
(** Wire one poster/waiter/firer round: waiter on node 0 parks on a
    completion attributed to node 1, which fires it after a yield. *)
