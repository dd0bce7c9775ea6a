(** The replicated key-value state machine, with client-session dedup.

    Applying the same committed log prefix always yields the same state;
    retried client commands (same [client_id], [seq]) are applied once. *)

type t

val create : unit -> t

val reset : t -> unit
(** Back to {!create}'s state: no key, no session, no lock, no staged
    transaction, at the created capacity. *)

val apply : t -> Types.entry -> string option
(** Apply a committed entry. Returns the read value for [Get], [None]
    otherwise (including for [Batch] entries, whose elements are applied in
    order under their own session identities — the leader uses
    {!apply_cmd} per element when it needs each result). Duplicate
    [(client_id, seq)] pairs are skipped (still returning the current value
    for reads). *)

val apply_cmd : t -> cmd:Types.command -> client_id:int -> seq:int -> string option
(** Apply one command under the given session identity — the per-element
    entry point the leader's batched apply/reply fan-out uses. [apply] of a
    [Batch] entry is exactly [apply_cmd] over its elements in order. The
    session lookup boxes nothing: a [Put] from a known session to a bound
    key allocates nothing. *)

val get : t -> string -> string option
(** Direct lookup (used by leader reads after commit). *)

val size : t -> int
(** Number of live keys. *)

val applied_count : t -> int
(** Entries actually applied (excludes deduplicated retries and Nops). *)

val locked : t -> string -> int option
(** The transaction currently holding a 2PC lock on the key, if any. *)

val staged_count : t -> int
(** Transactions prepared but not yet committed or aborted. *)

val digest : t -> int
(** Order-independent hash of the full store, for replica-agreement
    checks in tests. *)
