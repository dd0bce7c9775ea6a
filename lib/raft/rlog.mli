(** The Raft log: 1-based, append-only except for conflict truncation.

    Index 0 is a virtual sentinel with term 0. Purely in-memory; durability
    timing is modelled by the WAL writes the servers issue against the
    simulated disk.

    Replication ships {!View.t} windows — zero-copy references into the
    backing store guarded by a truncation generation — instead of
    [Array.sub] copies; see {!view}. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 1024) pre-sizes the backing store; it lands on the
    major heap and grows 4x, so steady-state appends never copy. *)

val reset : t -> unit
(** Back to empty, keeping the backing store; every outstanding
    {!View.t} turns stale. *)

val last_index : t -> Types.index
val last_term : t -> Types.term

val term_of : t -> Types.index -> Types.term
(** The term at an index, boxing nothing: -1 beyond the end (and below
    0); 0 at index 0. The hot paths (the follower's append and
    consistency check, the commit rule, the senders' [prev_term]) read
    this. *)

val term_at : t -> Types.index -> Types.term option
(** {!term_of} as an option: [None] beyond the end; [Some 0] at index 0. *)

val get : t -> Types.index -> Types.entry option

val append : t -> Types.entry -> unit
(** @raise Invalid_argument if the entry's index is not [last_index + 1]. *)

val truncate_from : t -> Types.index -> unit
(** Drop entries at indices >= the given one (conflict resolution). Bumps
    the log's generation, invalidating every outstanding {!View.t}. *)

val generation : t -> int
(** Current truncation generation (starts at 0). *)

(** A sub-array window into the log: store reference + offset + length +
    the generation it was cut at. Valid until the log next truncates;
    stale views fail loudly ({!View.Stale}) rather than exposing slots
    that may have been blanked or overwritten. Appends and backing-store
    growth never invalidate a view. *)
module View : sig
  type t = Types.eview

  exception Stale

  val length : t -> int

  val valid : t -> bool

  val bytes : t -> int
  (** Wire/WAL size of the window ({!Types.entry_bytes} summed), computed
      in place — no copy.
      @raise Stale on an invalidated view (it walks the store). *)
end

val view : t -> from:Types.index -> max:int -> View.t
(** Up to [max] entries starting at [from] (empty view if [from] is past
    the end). O(1), no copy — the replication hot path. *)

val slice_array : t -> from:Types.index -> max:int -> Types.entry array
(** Copying variant ([Array.sub]) kept for the baseline systems, which
    model copy-per-send replication. *)

val length : t -> int
(** Number of real entries ([last_index]). *)

val matches : t -> prev_index:Types.index -> prev_term:Types.term -> bool
(** The AppendEntries consistency check, through {!term_of}: it
    allocates nothing. *)
