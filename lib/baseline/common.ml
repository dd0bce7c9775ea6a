(** What the four baseline RSMs share beyond the replica core.

    The baselines reproduce the paper's §2 measurement subjects at the level
    that matters: the {e implementation patterns} that break fail-slow
    tolerance. Each server is a {!Raft.Server.t}: the per-server state,
    applier, WAL persist, follower append and commit rule are DepFastRaft's,
    set by {!profile} and run with a fixed leader (node 0) —
    the paper's Figure 1 experiments never change leaders; the one leader
    {e crash} it reports (RethinkDB under CPU faults) ends the run, which is
    exactly what the harness measures.

    This module adds the cluster wiring, the client path's admission (none:
    past it the path is DepFastRaft's), the leader's batch seal (one log
    entry per command) and the copying AppendEntries send. Each system file
    keeps only its replication pattern and its deliberate defect. *)

open Raft.Types

(** The per-connection client path (full parse, one reply per request, no
    grouped flush) and the copying follower append. *)
let profile =
  {
    Raft.Replica.cost_parse = Raft.Config.cost_client_parse;
    cost_reply = Raft.Config.cost_client_reply;
    cost_flush = 0;
    cost_follower_entry = Raft.Config.cost_follower_entry;
  }

(** The leader's client path without admission control: every request it
    is sent joins the queue, the backlog a fail-slow pipeline grows. *)
let handle_client_request (b : Raft.Replica.t) ~cmd ~client_id ~seq =
  Cluster.Node.cpu_work b.node profile.cost_parse;
  if not (Raft.Server.is_leader b) then Some (Raft.Server.not_leader b)
  else begin
    let p = Raft.Server.pending b ~cmd ~client:client_id ~seq in
    (* depfast-lint: allow unbounded-growth — deliberate baseline defect: no
       admission control on the client->leader path; the only drain is a
       sibling replicator loop (ROADMAP: bounded backpressure) *)
    Queue.add p b.pending_q;
    Depfast.Condvar.broadcast b.work_cv;
    Raft.Server.await_reply b p
  end

(** Append up to [Raft.Config.batch_max] queued commands to the leader's
    log, one entry each, and charge their marshalling. Returns the new
    entries. *)
let seal_batch (b : Raft.Replica.t) =
  let first = Raft.Rlog.last_index b.rlog + 1 in
  let entries =
    Array.mapi
      (fun k (p : Raft.Replica.pending) ->
        { term = b.term; index = first + k; cmd = p.p_cmd.b_cmd; client_id = p.p_cmd.b_client;
          seq = p.p_cmd.b_seq })
      (Raft.Server.take_batch b ~max:Raft.Config.batch_max ~index:first)
  in
  Array.iter
    (fun e ->
      (* depfast-lint: allow unbounded-growth — known-unbounded log: the
         baselines never truncate (ROADMAP: log compaction / snapshots) *)
      Raft.Rlog.append b.rlog e)
    entries;
  let n = Array.length entries in
  if n > 0 then
    Cluster.Node.cpu_work b.node
      (Raft.Config.cost_round_fixed + (n * Raft.Config.cost_marshal_entry));
  entries

(** The majority commit rule over the leader's whole log. *)
let commit_majority (b : Raft.Replica.t) =
  Raft.Server.set_commit b (Raft.Server.quorum_index b ~own:(Raft.Rlog.last_index b.rlog))

let note_match (fs : Raft.Replica.follower) m = fs.match_index <- max m fs.match_index

(** Charge the per-follower send cost, then ship [entries] to [dst] as one
    AppendEntries naming [leader] (default [b]) and its commit point. The
    commit point is read after the charge, which suspends. *)
let send_append (b : Raft.Replica.t) ?(leader = b) ~dst entries =
  Cluster.Node.cpu_work b.node
    (Raft.Config.cost_per_follower
    + (Array.length entries * Raft.Config.cost_send_entry));
  let prev_index = entries.(0).index - 1 in
  Cluster.Rpc.call b.rpc ~src:b.node ~dst
    ~bytes:(256 + entries_bytes entries)
    (Append_entries
       {
         term = b.term;
         leader = Raft.Server.id leader;
         prev_index;
         prev_term = Int.max 0 (Raft.Rlog.term_of b.rlog prev_index);
         (* baselines ship a copied batch, wrapped as an owned view *)
         entries = view_of_array entries;
         commit = leader.commit_index;
       })

(** A baseline cluster: the system's own state [t] and its servers, node 0
    (the leader) first. *)
type 'a cluster = { t : 'a; g : Raft.Group.t }

(** Build an [n]-server cluster (node ids [0..n-1], names s1..sN): [make]
    turns the servers into the system's state, and [handle t] answers each
    server's requests but [Client_request], which {!handle_client_request}
    takes; it falls back to {!Raft.Server.handle} (pushed AppendEntries).
    Every server runs its applier and hiccups; the caller spawns its own
    replication loops afterwards. *)
let build sched ~n ~cfg ?mem_soft_cap ?mem_hard_cap ~make ~handle () =
  let g = Raft.Group.build sched ~n ~cfg ?mem_soft_cap ?mem_hard_cap ~profile ~leader:0 () in
  let t = make g.Raft.Group.servers in
  List.iter
    (fun (b : Raft.Replica.t) ->
      Cluster.Rpc.serve b.rpc ~node:b.node ~handler:(fun ~src:_ req ->
          match req with
          | Client_request { cmd; client_id; seq } ->
            handle_client_request b ~cmd ~client_id ~seq
          | req -> handle t b req);
      Raft.Server.run b)
    g.Raft.Group.servers;
  { t; g }
