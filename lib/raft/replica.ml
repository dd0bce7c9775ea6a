(** The replica core's state: what a server of any system holds.

    DepFastRaft ({!Server}) and the baselines ([lib/baseline]) run one
    per-server record and one client path, applier, WAL persist, follower
    append and commit rule over it; the code is {!Server}'s. A system sets
    its {!profile}; a baseline also fixes the leader. *)

open Sim
open Types

type rpc = (Types.req, Types.resp) Cluster.Rpc.t
type role = Follower | Candidate | Leader

(** What a system sets in the shared core. *)
type profile = {
  cost_parse : Time.span;  (** CPU per client request at the leader *)
  cost_reply : Time.span;  (** CPU per client reply, shed replies included *)
  cost_flush : Time.span;  (** applier CPU per sealed batch's grouped flush; 0: none *)
  cost_follower_entry : Time.span;  (** follower CPU per appended entry *)
}

(** A client request queued at the leader. *)
type pending = {
  p_cmd : bcmd;  (* the command with its session, as a batch carries it *)
  mutable p_ok : bool;
  mutable p_value : string option;
  p_done : Depfast.Event.t;
  p_t0 : Time.t;  (* enqueue time, for commit-latency tracking *)
}

(** A leader's view of one follower. *)
type follower = {
  f_id : int;
  mutable next_index : index;  (* next index to (re)send from *)
  mutable match_index : index;  (* highest index known replicated there *)
  mutable sent_index : index;  (* DepFastRaft: advanced as batches ship *)
  mutable inflight : int;  (* unacknowledged AppendEntries *)
  mutable last_send : Time.t;
  mutable last_ack : Time.t;
  progress_cv : Depfast.Condvar.t;
  (* replication-round watchers: (target index, progress event with this
     follower as peer); fired when match_index reaches the target *)
  mutable watchers : (index * Depfast.Event.t) list;
}

type ewma = { mutable commit_latency_ewma : float }  (* us, -1 until first sample; unboxed *)

(** One server's state. *)
type t = {
  rpc : rpc;
  node : Cluster.Node.t;
  sched : Depfast.Sched.t;
  cfg : Config.t;
  profile : profile;
  peers : int list;
  sender_names : string list;  (* ["raft.sender.<peer>"], one per peer *)
  n_voters : int;
  rng : Rng.t;
  mutable role : role;
  mutable term : term;
  mutable voted_for : int option;
  rlog : Rlog.t;
  mutable commit_index : index;
  mutable last_applied : index;
  kv : Kv.t;
  mutable last_contact : Time.t;
  mutable leader : int option;
  self_hint : int option;  (* [Some] of this node's id, the hint a leader replies with *)
  ack : Types.resp option;  (* the one reply to a committed request without a value *)
  (* leader-side state *)
  pending_q : pending Queue.t;  (* admission queue *)
  by_index : (index, pending array) Hashtbl.t;  (* a sealed batch, at its first command's index *)
  mutable replies : pending array;  (* the batch the applier is replying to ... *)
  mutable next_reply : int;  (* ... and its next command's slot *)
  followers : (int, follower) Hashtbl.t;
  work_cv : Depfast.Condvar.t;
  commit_cv : Depfast.Condvar.t;
  mutable epoch : int;  (* bumped on every role/term transition *)
  ewma : ewma;
  mutable wal_done_index : index;  (* highest locally durable log index *)
  mutable rounds_inflight : int;  (* pipelined replication rounds *)
  round_cv : Depfast.Condvar.t;
  append_mu : Depfast.Mutex.t;  (* serial, in-order replication-stream apply *)
  match_buf : int array;  (* scratch for the commit rule, one slot per voter *)
  (* per-leader load gauges *)
  batch_hist : Hist.t;  (* commit-batch-size distribution (count per flush) *)
  mutable shed_count : int;  (* requests rejected at admission *)
}

