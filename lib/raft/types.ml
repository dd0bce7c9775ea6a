(** Wire and log types shared by DepFastRaft and the baseline RSMs. *)

type term = int [@@deriving show { with_path = false }, eq]
type index = int [@@deriving show { with_path = false }, eq]

(** State-machine commands. [Nop] is the no-op a fresh leader commits to
    learn its commit index. *)
type command =
  | Put of { key : string; value : string }
  | Get of { key : string }
  | Nop
  | Tx_prepare of { txid : int; writes : (string * string) list }
      (** 2PC phase 1, replicated through the shard's log: lock the keys and
          stage the writes; applies to "ok" or "conflict" *)
  | Tx_commit of { txid : int }  (** 2PC phase 2: install staged writes *)
  | Tx_abort of { txid : int }  (** 2PC phase 2: discard staged writes *)
  | Batch of bcmd array
      (** group commit: concurrent client commands coalesced by the leader's
          batcher into one log entry — one WAL fsync and one replication
          round for the whole group. Each element keeps its own client
          session identity so dedup and reply fan-out stay per-command. *)

and bcmd = { b_cmd : command; b_client : int; b_seq : int }
[@@deriving show { with_path = false }, eq]

type entry = {
  term : term;
  index : index;
  cmd : command;
  client_id : int;  (** -1 for internal entries *)
  seq : int;  (** client request sequence number, for dedup *)
}
[@@deriving show { with_path = false }, eq]

(** A zero-copy window into a log's backing store — what AppendEntries
    carries on the (simulated) wire instead of an [Array.sub] copy. The
    window stays valid as long as the producing log has not truncated:
    [v_live] is the log's generation cell, bumped on every truncation, and
    a mismatch with [v_gen] marks the view stale. Appends and backing-array
    growth never invalidate a view (growth blits the prefix; the view holds
    the old store). Consumers materialize with {!view_materialize}. *)
type eview = {
  v_store : entry array;  (** the log's backing array when the view was cut *)
  v_off : int;  (** 0-based offset into [v_store] *)
  v_len : int;
  v_gen : int;  (** producing log's generation at creation *)
  v_live : int ref;  (** the log's live generation cell *)
}

let pp_eview fmt v =
  Format.fprintf fmt "<view %d entries @@%d gen %d%s>" v.v_len v.v_off v.v_gen
    (if !(v.v_live) = v.v_gen then "" else " STALE")

let view_of_array a =
  (* a self-owned copy wrapped as a view (always valid): the path baseline
     systems take — they still pay the copy this wrapper carries *)
  { v_store = a; v_off = 0; v_len = Array.length a; v_gen = 0; v_live = ref 0 }

let view_len v = v.v_len
let view_valid v = !(v.v_live) = v.v_gen

let view_materialize v =
  (* [None] when the producer truncated after the view was cut: the send
     buffer was reclaimed before the (simulated) NIC shipped it, so the
     message is treated as lost — always safe for AppendEntries *)
  if not (view_valid v) then None
  else if v.v_len = 0 then Some [||]
  else Some (Array.sub v.v_store v.v_off v.v_len)

(** Requests. The RSM uses one RPC channel for peer and client traffic,
    like real systems sharing a port. *)
type req =
  | Request_vote of {
      term : term;
      candidate : int;
      last_log_index : index;
      last_log_term : term;
      transfer : bool;
          (** set during leadership transfer; bypasses leader stickiness *)
      prevote : bool;
          (** Pre-Vote phase (Raft thesis §9.6): probe electability without
              disturbing the incumbent; grants are advisory, the term is the
              term the candidate {e would} use *)
    }
  | Append_entries of {
      term : term;
      leader : int;
      prev_index : index;
      prev_term : term;
      entries : eview;
          (** zero-copy view into the sender's log; the receiver
              materializes (and a stale view is a lost message) *)
      commit : index;
    }
  | Client_request of { cmd : command; client_id : int; seq : int }
  | Pull_oplog of { from : index; follower : int }
      (** MongoDB-like pull-based replication (baseline only). *)
  | Update_position of { follower : int; match_index : index; term : term }
      (** MongoDB-like progress report (baseline only). *)
  | Transfer_leadership of { target : int }
      (** §5 mitigation: ask the leader to hand off to [target]. *)
  | Timeout_now
      (** sent by a transferring leader: start an election immediately. *)
[@@deriving show { with_path = false }]

type resp =
  | Vote_resp of { term : term; granted : bool }
  | Append_resp of { term : term; success : bool; match_index : index }
  | Client_resp of {
      ok : bool;
      shed : bool;
          (** the leader's bounded admission queue was full and the request
              was rejected at the door (fail-fast) — retrying immediately
              would only feed the overload *)
      leader_hint : int option;
      value : string option;
    }
  | Oplog_resp of { entries : entry list; prev_index : index; prev_term : term; commit : index }
  | Ack
[@@deriving show { with_path = false }]

(** Size estimate of a command / an entry on the wire / WAL, for disk and
    buffer accounting. A batch pays one entry header plus a small per-element
    frame — the WAL-amortization the batcher exists for. *)
let rec cmd_bytes = function
  | Put { key; value } -> 64 + String.length key + String.length value
  | Get { key } -> 64 + String.length key
  | Nop -> 64
  | Tx_prepare { writes; _ } ->
    List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v) 96 writes
  | Tx_commit _ | Tx_abort _ -> 72
  | Batch subs -> Array.fold_left (fun acc b -> acc + 16 + cmd_bytes b.b_cmd) 32 subs

let entry_bytes e = cmd_bytes e.cmd

let entries_bytes es = List.fold_left (fun acc e -> acc + entry_bytes e) 0 es
let entries_bytes_a es = Array.fold_left (fun acc e -> acc + entry_bytes e) 0 es

(* wire/WAL size of a view's window, without materializing it *)
let view_bytes v =
  let acc = ref 0 in
  for i = v.v_off to v.v_off + v.v_len - 1 do
    acc := !acc + entry_bytes (Array.unsafe_get v.v_store i)
  done;
  !acc
