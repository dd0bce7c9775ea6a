(** Probability distributions used by the latency and workload models.

    A value of type {!t} is a description of a distribution; {!sample} draws
    from it with a caller-supplied generator, so distributions are pure data
    and can be stored in configuration records. *)

type t =
  | Constant of float
  | Uniform of float * float  (** [Uniform (lo, hi)], half-open. *)
  | Exponential of float  (** [Exponential mean]. *)
  | Normal of float * float  (** [Normal (mean, stddev)], truncated at 0. *)
  | Lognormal of float * float
      (** [Lognormal (mu, sigma)] of the underlying normal. *)
  | Pareto of float * float
      (** [Pareto (scale, shape)]; heavy-tailed, used for transient hiccups. *)
  | Shifted of float * t  (** [Shifted (offset, d)]: [offset + sample d]. *)
  | Scaled of float * t  (** [Scaled (k, d)]: [k *. sample d]. *)

val sample : Rng.t -> t -> float
(** Draw one value. Never negative (negative draws are clamped to 0). *)

val sample_span : Rng.t -> t -> Time.span
(** Draw a duration, interpreting the distribution's unit as microseconds. *)

val mean : t -> float
(** Analytic mean (for Pareto with shape <= 1, returns infinity). *)

val make_zipfian : n:int -> theta:float -> Rng.t -> int
(** [make_zipfian ~n ~theta] precomputes the zipfian constants and returns a
    sampling function (preferred in hot paths). *)
