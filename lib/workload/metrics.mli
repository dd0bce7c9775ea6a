(** Results of one benchmark run: the three quantities in every figure of
    the paper (throughput, average latency, P99 latency), plus diagnostics. *)

type t = {
  duration : Sim.Time.span;  (** measurement window *)
  completed : int;
  failed : int;
  shed : int;  (** ops rejected fail-fast at admission (not failures) *)
  latency : Sim.Hist.t;  (** successful ops completing in the window *)
  leader_utilization : float;  (** leader CPU over the window, 0..1 *)
  leader_crashed : bool;
  leader_fsyncs : int;  (** leader-disk fsyncs over the window *)
}

val throughput : t -> float
(** Successful operations per second. *)

val mean_latency_ms : t -> float
val p99_latency_ms : t -> float

val shed_rate : t -> float
(** Shed fraction of the offered load ([shed / (completed+failed+shed)]). *)

val fsyncs_per_op : t -> float
(** Leader fsyncs per completed op — below 1 means group commit is
    amortizing durability across batched commands. *)

val normalize : t -> baseline:t -> float * float * float
(** [(throughput, mean latency, p99 latency)] of [t] relative to
    [baseline] — the Figure 1 normalization. *)

val pp : Format.formatter -> t -> unit
