(** Timing and cost model for the RSM implementations.

    The CPU costs are calibrated (see DESIGN.md §6) against the paper's
    YCSB-style closed-loop write workload on a 3-node cluster; the
    operating point they produce (throughput and leader CPU) is recorded
    in EXPERIMENTS.md, not here. All implementations share this model;
    they differ only in {e how they wait}. *)

open Sim

type t = {
  election_timeout_min : Time.span;
  election_timeout_max : Time.span;
  heartbeat_interval : Time.span;
  max_batch : int;
      (** max client commands the leader's batcher coalesces into one
          multi-command log entry (group commit); 1 disables batching — one
          entry, one fsync, one replication round per command *)
  admission_depth : int;
      (** bound on the leader's pending client-command queue: a request
          arriving with the queue at this depth is shed with an explicit
          fail-fast reply instead of joining an unbounded backlog (the
          paper's §2 RethinkDB root cause) *)
  rpc_timeout : Time.span;
  client_timeout : Time.span;
  enable_hiccups : bool;
  replication_arity : [ `Majority | `All ];
      (** ablation knob: [`All] replaces the replication QuorumEvent's
          majority arity with wait-for-everyone — the anti-pattern *)
}

let default =
  {
    election_timeout_min = Time.ms 150;
    election_timeout_max = Time.ms 300;
    heartbeat_interval = Time.ms 50;
    max_batch = 64;
    admission_depth = 256;
    rpc_timeout = Time.ms 1000;
    client_timeout = Time.ms 5000;
    enable_hiccups = true;
    replication_arity = `Majority;
  }

(* The constants below are the model every run shares: no caller varies
   them, so editing one is a cost-model change (DESIGN.md §6). *)

(* replication timing *)

let batch_max = 64  (** max entries per AppendEntries *)

(** max unacknowledged AppendEntries per follower: the leader streams up
    to this many batches past the last ack (flow-control window, rewound
    on a consistency reject) instead of one batch per round-trip *)
let pipeline_depth = 4

let group_commit_window = Time.ms 5  (** how long an idle leader waits for work *)

(* CPU cost model, nominal core-microseconds *)

(** per client request, at the leader: decode plus the per-connection
    hashtable lookup and per-request dispatch closure of the baseline
    systems' connection handling *)
let cost_client_parse = Time.us 250

let cost_client_reply = Time.us 120

(** per client request, at the leader, on the pooled/indexed connection
    path: the request resolves through a direct-indexed connection slot —
    no hash traffic, no per-request closure *)
let cost_client_parse_pooled = Time.us 200

let cost_round_fixed = Time.us 240  (** per replication round, leader serial *)

(** per entry per round, leader serial: WAL encode {e plus} the wire
    serialization into a per-send buffer — the copying replication path
    the baseline systems model *)
let cost_marshal_entry = Time.us 80

(** per entry per round, leader serial, on the zero-copy path: WAL encode
    only — the wire buffer is gone, the NIC ships straight out of the log
    ({!Rlog.view}) *)
let cost_wal_entry = Time.us 40

(** per follower per round, leader serial: assemble and hand off one
    peer's send buffer — the baseline systems' ship path *)
let cost_per_follower = Time.us 60

(** per follower per round, leader serial, on the zero-copy path: enqueue
    a view descriptor on the peer's pooled link — no buffer assembly, O(1)
    in the batch size *)
let cost_ship_view = Time.us 40

(** per ack, leader async: closure dispatch + per-call table lookup — the
    baseline systems' response path *)
let cost_ack_process = Time.us 60

(** per ack, leader async, on the pooled/indexed path: the response
    resolves through a direct-indexed connection slot and an O(1) window
    update, no per-message closure or hash traffic *)
let cost_ack_indexed = Time.us 20

(** per entry per follower, sender serial: the per-entry copy into the
    send buffer. The zero-copy path does not pay this — shipping a view is
    O(1) in the batch size *)
let cost_send_entry = Time.us 20

let cost_follower_fixed = Time.us 200  (** per AppendEntries, follower serial *)

(** per entry, follower serial: unmarshal the wire buffer entry by entry,
    then append — the baseline systems' receive path *)
let cost_follower_entry = Time.us 100

(** per entry, follower serial, on the zero-copy path: the batch
    materializes from the shipped log view as structured entries, so the
    stream pays append + checksum only, no per-entry unmarshal *)
let cost_follower_entry_view = Time.us 60

let cost_apply_entry = Time.us 100  (** per committed entry, both sides *)

(** per command inside a committed multi-command (batch) entry: the
    marginal state-machine update only — entry fetch, index advance, and
    dispatch are paid once per entry via [cost_apply_entry], and the
    session table stays cache-warm across the batch *)
let cost_apply_cmd = Time.us 40

(** per client reply on the grouped fan-out path: the reply is appended to
    its connection slot's outbuf; the syscall is the shared per-batch
    flush ([cost_reply_flush]) *)
let cost_client_reply_grouped = Time.us 30

(** per commit batch, leader serial: one vectored flush pushing every
    reply of the batch out — the syscall each reply would otherwise pay on
    its own *)
let cost_reply_flush = Time.us 70

let cost_vote = Time.us 50

(* storage *)

let wal_entry_overhead = 48  (** bytes per entry beyond payload *)

(* transient hiccups (GC pauses etc.), per node *)

(** gap between hiccups, us: ~every 400 ms *)
let hiccup_interval = Dist.Exponential 400_000.0

(** hiccup length, us *)
let hiccup_duration = Dist.Shifted (500.0, Dist.Pareto (500.0, 1.8))

let hiccup_factor = 4.0  (** CPU slowdown during a hiccup *)

(** Majority of a group of [n] voters. *)
let majority n = (n / 2) + 1
