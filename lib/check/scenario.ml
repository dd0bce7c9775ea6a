(* A scenario is a small closed world the schedule explorer re-executes
   once per explored interleaving. [make san sched] builds the world once
   per run state (wiring any network it creates into choice mode + the
   sanitizer); the function it returns starts one run on that world,
   after the explorer reset the engine, scheduler and sanitizer: it resets
   the world, registers its gauges, spawns its drivers and returns the
   instance, which tells the explorer how long to run and how to judge
   the terminal state. *)

type instance = {
  until : Sim.Time.t option;
      (* virtual-time deadline for the run; [None] = run to quiescence
         (only for scenarios with no recurring timers) *)
  check : unit -> string list;
      (* terminal-state invariants; one message per violation. Must hold
         in *every* interleaving, including truncated ones — prefer
         safety properties (agreement, at-most-one-leader) over liveness *)
}

type t = {
  name : string;
  descr : string;
  gating : bool;  (* part of the default registry run (CI) *)
  modules : string list;  (* source files exercised — certificate domain *)
  par_safe : bool;
      (* every run touches only state [make] built: safe to execute runs
         concurrently on separate domains. Scenarios seeded through
         process-global fixture cells must say false *)
  default_schedules : int;  (* per-scenario schedule budget in `all` runs *)
  fault : Cluster.Fault.kind option;
      (* the fail-slow fault this scenario injects, if any: runs feed
         their observed SPG edges into the static-exposure cross-check
         attributed to this kind *)
  allow : node:int -> bool;  (* Spg.audit exemption (clients) *)
  provenance : string -> string option;
      (* coroutine name -> source file implementing it, for the
         certificate cross-check *)
  make : Sanitizer.t -> Depfast.Sched.t -> unit -> instance;
}

let allow_none ~node:(_ : int) = false
let allow_all ~node:(_ : int) = true
