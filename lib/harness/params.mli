(** Experiment parameters.

    [full] follows the paper's §2.1 methodology (YCSB update workload
    over 500K records, closed-loop clients; the operating point they
    produce is recorded in EXPERIMENTS.md); [quick] shrinks everything for
    CI and unit tests. *)

type t = {
  seed : int64;  (** engine seed — experiments are deterministic in it *)
  clients : int;  (** closed-loop client count *)
  warmup : Sim.Time.span;  (** excluded from the measured window *)
  duration : Sim.Time.span;  (** measured window *)
  records : int;  (** keyspace size *)
}

val full : t
val quick : t

val workload : t -> Workload.Ycsb.t
(** The update-heavy YCSB mix scaled to [t]'s records. *)
