(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (splitmix64) so that every simulation
    component can own an independent stream derived from the experiment seed.
    Streams are stable across OCaml versions, unlike [Stdlib.Random]. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val reseed : t -> int64 -> unit
(** [reseed t seed] puts [t] back in [create seed]'s state. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Used to give each node / client / distribution its own stream. *)

val split_into : t -> into:t -> unit
(** [split_into t ~into] puts [into] in the state [split t] would return,
    advancing [t] the same way: a component that resets re-splits its
    stream in place. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bits53 : t -> int
(** 53 random bits, uniform in [\[0, 2^53)]; allocates nothing. The
    uniform float in [\[0, 1)] is [float_of_int (bits53 t) *. 0x1p-53],
    which callers compute themselves: a float returned from another
    module would be boxed. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniformly chosen element. Requires a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
