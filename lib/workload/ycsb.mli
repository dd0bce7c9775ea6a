(** YCSB-style workload generation (§2.1).

    The paper drives each system with the YCSB write workload, updating
    500K records, from 256–1200 concurrent closed-loop clients. Keys follow
    YCSB's zipfian request distribution (YCSB's default theta 0.99);
    values are fixed-size 1 KiB blobs. *)

type t = {
  record_count : int;
  read_proportion : float;  (** 0.0 = pure updates (the paper's setting) *)
}

val update_heavy : t
(** The paper's workload: 100% updates over 500K records, 1 KiB values. *)

val scaled : ?records:int -> t -> t
(** Shrink a workload for quick tests. *)

type op =
  | Update of { key : string; value : string }
  | Read of { key : string }

type gen
(** Per-client operation generator (owns its RNG stream). *)

type memo
(** Caller-scoped cache for the O(record_count) zipfian constants —
    create one per run and pass it to every [make_gen] of that run. A
    module-level table here would be cross-domain mutable state (the
    depfast-domains pass's [unsafe-shared] verdict). *)

val make_memo : unit -> memo

val make_gen : ?memo:memo -> t -> Sim.Rng.t -> gen
(** Without [?memo] the zipfian constants are computed fresh. *)

val next_op : gen -> op
