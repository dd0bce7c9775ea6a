(** A scenario: a small closed world the schedule explorer re-executes
    once per explored interleaving.

    [make] builds all state against a freshly reset scheduler (wiring any
    network it creates into choice mode and the sanitizer, and
    registering any queue-depth gauges); the returned instance tells
    the explorer how long to run and how to judge the terminal state. *)

type instance = {
  until : Sim.Time.t option;
      (** virtual-time deadline for the run; [None] = run to quiescence
          (only for scenarios with no recurring timers) *)
  check : unit -> string list;
      (** terminal-state invariants; one message per violation. Must
          hold in {e every} interleaving, including truncated ones —
          prefer safety properties (agreement, at-most-one-leader) over
          liveness *)
}

type t = {
  name : string;
  descr : string;
  gating : bool;  (** part of the default registry run (CI) *)
  modules : string list;  (** source files exercised — certificate domain *)
  par_safe : bool;
      (** every run touches only state [make] built: safe to execute
          runs concurrently on separate domains. Scenarios seeded
          through process-global fixture cells must say false — the
          explorer forces such scenarios back to one domain *)
  default_schedules : int;  (** per-scenario schedule budget in [all] runs *)
  fault : Cluster.Fault.kind option;
      (** the fail-slow fault this scenario injects, if any. When set,
          every explored run's observed SPG edges are folded into the
          cumulative per-kind edge set and cross-checked against the
          static exposure map ({!Certificate.exposed}): an observed
          propagation edge outside the static blast radius escalates to
          [certificate-mismatch] *)
  allow : node:int -> bool;  (** [Spg.audit] exemption (clients) *)
  provenance : string -> string option;
      (** coroutine name -> source file implementing it, for the
          certificate cross-check *)
  make : Sanitizer.t -> Depfast.Sched.t -> instance;
}

val allow_none : node:int -> bool
val allow_all : node:int -> bool
