(** Figure 2: the slowness propagation graph of a three-shard DepFastRaft
    deployment (servers s1-s9 in three quorums, clients c1-c3).

    Expected shape, as in the paper: {e green} majority-arity edges
    between the members of each quorum (no single-event waits inside
    groups), and {e red} 1/1 edges from each client to the leader it
    talks to. *)

type result = {
  spg : Depfast.Spg.t;
  dot : string;  (** Graphviz rendering with s1-s9/c1-c3 labels *)
  edges : Depfast.Spg.edge list;
  violations : Depfast.Spg.violation list;  (** with clients exempted *)
  intra_group_tolerant : bool;
      (** no single-event waits inside the replication quorums *)
  names : int -> string;  (** node id -> display name *)
}

val run : unit -> result
(** Elect one leader per shard, trace 50 client writes per shard, and
    audit the recorded propagation graph. *)

val print : unit -> unit
