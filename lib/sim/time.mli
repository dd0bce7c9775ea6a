(** Virtual time for the discrete-event simulator.

    Time is an absolute instant measured in integer microseconds since the
    start of the simulation; {!span} is a duration in the same unit. Using
    integers keeps the simulator deterministic across platforms. *)

type t = int
(** Absolute virtual time, in microseconds since simulation start. *)

type span = int
(** Duration in microseconds. *)

val zero : t

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val sec : int -> span
(** [sec n] is a span of [n] seconds. *)

val of_ms_f : float -> span
(** [of_ms_f x] is a span of [x] milliseconds, rounded to the nearest
    microsecond. *)

val of_us_f : float -> span
(** [of_us_f x] is a span of [x] microseconds, rounded. *)

val to_ms_f : span -> float
(** [to_ms_f s] is [s] expressed in (possibly fractional) milliseconds. *)

val to_sec_f : span -> float
(** [to_sec_f s] is [s] expressed in (possibly fractional) seconds. *)

val add : t -> span -> t

val diff : t -> t -> span
(** [diff a b] is [a - b]. *)
