(** Experiment parameters.

    [full] follows the paper's §2.1 methodology (YCSB update workload over
    500K records, closed-loop clients; the operating point they produce is
    recorded in EXPERIMENTS.md); [quick] shrinks everything for CI and unit
    tests. *)

type t = {
  seed : int64;
  clients : int;
  warmup : Sim.Time.span;
  duration : Sim.Time.span;
  records : int;
}

let full =
  {
    seed = 7L;
    clients = 48;
    warmup = Sim.Time.sec 2;
    duration = Sim.Time.sec 12;
    records = 500_000;
  }

let quick =
  {
    seed = 7L;
    clients = 64;
    warmup = Sim.Time.ms 500;
    duration = Sim.Time.sec 3;
    records = 10_000;
  }

let workload t =
  Workload.Ycsb.scaled ~records:t.records Workload.Ycsb.update_heavy
