(** Latency histogram with HDR-style logarithmic buckets.

    Records durations in microseconds with bounded relative error
    (~1/64 per bucket) and answers quantile queries without retaining every
    sample. Also tracks exact count / sum / min / max. *)

type t

val create : unit -> t

val add : t -> Time.span -> unit
(** Record one duration. Negative values are clamped to 0. *)

val count : t -> int

val min_value : t -> Time.span
(** 0 when empty. *)

val max_value : t -> Time.span
(** 0 when empty. *)

val mean : t -> float
(** Mean in microseconds; 0 when empty. *)

val quantile : t -> float -> Time.span
(** [quantile t q] with [q] in [\[0, 1\]]: smallest recorded bucket upper
    bound covering fraction [q] of samples. 0 when empty. *)

val p99 : t -> Time.span

val merge : t -> t -> t
(** Combined histogram; inputs unchanged. *)

val clear : t -> unit
