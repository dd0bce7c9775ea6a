(** The skeleton the four baseline RSMs share.

    The baselines reproduce the paper's §2 measurement subjects at the level
    that matters: the {e implementation patterns} that break fail-slow
    tolerance. They share the protocol types, log, state machine, and client
    with DepFastRaft, and they run steady-state with a fixed leader (node 0)
    — the paper's Figure 1 experiments never change leaders; the one leader
    {e crash} it reports (RethinkDB under CPU faults) ends the run, which is
    exactly what the harness measures.

    This module owns everything in which the baselines do not differ: the
    cluster ({!build} makes the servers, serves client requests and starts
    each server's applier and hiccups), the {!sut} the harness drives, the
    leader's batch seal, the WAL, the AppendEntries send, the pushing
    followers' locked append step and the majority commit rule. Each system
    file keeps only its replication pattern and its deliberate defect. *)

open Raft.Types

type rpc = (Raft.Types.req, Raft.Types.resp) Cluster.Rpc.t

type pending = {
  p_cmd : command;  (* with [p_client] and [p_seq], the entry it seals into *)
  p_client : int;
  p_seq : int;
  mutable p_ok : bool;
  mutable p_value : string option;
  p_done : Depfast.Event.t;
}

(** Per-server state common to all baselines. *)
type base = {
  node : Cluster.Node.t;
  rpc : rpc;
  cfg : Raft.Config.t;
  sched : Depfast.Sched.t;
  peers : int list;
  n_voters : int;
  leader_id : int;
  rlog : Raft.Rlog.t;
  kv : Raft.Kv.t;
  mutable commit_index : index;
  mutable last_applied : index;
  match_index : (int, index) Hashtbl.t;
      (** the leader's view of each follower's log; absent reads as 0 *)
  pending_q : pending Queue.t;
  by_index : (index, pending) Hashtbl.t;
  work_cv : Depfast.Condvar.t;
  commit_cv : Depfast.Condvar.t;
  append_mu : Depfast.Mutex.t;
      (** serializes the follower's replication-stream processing, like a
          per-connection reader thread *)
  rng : Sim.Rng.t;
}

let make_base rpc node ~peers ~leader_id ~cfg =
  let sched = Cluster.Node.sched node in
  {
    node;
    rpc;
    cfg;
    sched;
    peers;
    n_voters = List.length peers + 1;
    leader_id;
    rlog = Raft.Rlog.create ();
    kv = Raft.Kv.create ();
    commit_index = 0;
    last_applied = 0;
    match_index = Hashtbl.create 8;
    pending_q = Queue.create ();
    by_index = Hashtbl.create 16;
    work_cv = Depfast.Condvar.create ~label:"work" ();
    commit_cv = Depfast.Condvar.create ~label:"commit" ();
    append_mu = Depfast.Mutex.create ~label:"append" ();
    rng = Sim.Engine.split_rng (Depfast.Sched.engine sched);
  }

let alive b = Cluster.Node.alive b.node
let id b = Cluster.Node.id b.node
let is_leader b = id b = b.leader_id
let last_index b = Raft.Rlog.last_index b.rlog
let cpu_work b w = Cluster.Node.cpu_work b.node w

(** Write [entries] to the local WAL and fsync; the event fires when durable. *)
let wal_append b entries =
  let disk = Cluster.Node.disk b.node in
  let bytes =
    entries_bytes entries + (Array.length entries * Raft.Config.wal_entry_overhead)
  in
  ignore (Cluster.Disk.write disk ~bytes);
  Cluster.Disk.fsync disk

let persist b entries =
  (* depfast-lint: allow red-exposure — own-WAL durability wait: a node
     persists its own log on its local disk before it acks or forwards *)
  Depfast.Sched.wait b.sched (wal_append b entries)

let enqueue b ~cmd ~client ~seq =
  let p =
    { p_cmd = cmd; p_client = client; p_seq = seq; p_ok = false; p_value = None;
      p_done = Depfast.Event.signal ~label:"committed" () }
  in
  (* depfast-lint: allow unbounded-growth — deliberate baseline defect: no
     admission control on the client->leader path; the only drain is a
     sibling replicator loop (ROADMAP: bounded backpressure) *)
  Queue.add p b.pending_q;
  Depfast.Condvar.broadcast b.work_cv;
  p

(** The leader's group-commit wait: with nothing queued, wait up to one
    commit window for work. *)
let await_work b =
  if Queue.is_empty b.pending_q then
    ignore
      (Depfast.Condvar.wait_timeout b.sched b.work_cv Raft.Config.group_commit_window)

(** Append up to [Raft.Config.batch_max] queued commands to the leader's log and charge
    their marshalling. Returns the new entries. *)
let seal_batch b =
  let entries =
    Array.init
      (min Raft.Config.batch_max (Queue.length b.pending_q))
      (fun _ ->
        let p = Queue.pop b.pending_q in
        let e =
          { term = 1; index = last_index b + 1; cmd = p.p_cmd; client_id = p.p_client; seq = p.p_seq }
        in
        (* depfast-lint: allow unbounded-growth — known-unbounded log: the
           baselines never truncate (ROADMAP: log compaction / snapshots) *)
        Raft.Rlog.append b.rlog e;
        Hashtbl.replace b.by_index e.index p;
        e)
  in
  let n = Array.length entries in
  if n > 0 then
    cpu_work b (Raft.Config.cost_round_fixed + (n * Raft.Config.cost_marshal_entry));
  entries

(** Follower-side idempotent log append (no term conflicts here: baselines
    run a single fixed leader). *)
let follower_append b entries =
  Array.iter
    (fun e ->
      (* depfast-lint: allow unbounded-growth — known-unbounded log
         (ROADMAP: log compaction / snapshots) *)
      if e.index = last_index b + 1 then Raft.Rlog.append b.rlog e)
    entries

let set_commit b idx =
  if idx > b.commit_index then begin
    b.commit_index <- min idx (last_index b);
    Depfast.Condvar.broadcast b.commit_cv
  end

let match_of b f = Option.value ~default:0 (Hashtbl.find_opt b.match_index f)
let note_match b f m = Hashtbl.replace b.match_index f (max m (match_of b f))

(** The majority commit rule: the highest index a majority (the leader's own
    log included) holds. *)
let commit_majority b =
  let matches = last_index b :: List.map (match_of b) b.peers in
  let sorted = List.sort (fun a b -> compare b a) matches in
  set_commit b (List.nth sorted (Raft.Config.majority b.n_voters - 1))

(** Charge the per-follower send cost, then ship [entries] to [dst] as one
    AppendEntries naming [leader] (default [b]) and its commit point. The
    commit point is read after the charge, which suspends. *)
let send_append b ?(leader = b) ~dst entries =
  cpu_work b
    (Raft.Config.cost_per_follower
    + (Array.length entries * Raft.Config.cost_send_entry));
  Cluster.Rpc.call b.rpc ~src:b.node ~dst
    ~bytes:(256 + entries_bytes entries)
    (Append_entries
       {
         term = 1;
         leader = id leader;
         prev_index = entries.(0).index - 1;
         prev_term = 1;
         (* baselines ship a copied batch, wrapped as an owned view *)
         entries = view_of_array entries;
         commit = leader.commit_index;
       })

(** The pushing followers' handler (the system state is not needed): the
    replication stream is processed serially, in delivery order, under the
    append lock. *)
let handle_append_entries _ b req =
  match req with
  | Append_entries { prev_index; entries; commit; _ } -> (
    match view_materialize entries with
    | None -> None
    | Some entries ->
      Some
        (Depfast.Mutex.with_lock b.sched b.append_mu (fun () ->
             (* depfast-lint: allow lock-across-call — deliberate baseline
                defect: per-entry CPU work runs inside the append lock *)
             cpu_work b
               (Raft.Config.cost_follower_fixed
               + (Array.length entries * Raft.Config.cost_follower_entry));
             if prev_index > last_index b then
               Append_resp { term = 1; success = false; match_index = last_index b }
             else begin
               follower_append b entries;
               if Array.length entries > 0 then
                 (* depfast-lint: allow lock-across-call — deliberate
                    baseline defect (§2): the append lock is held across
                    WAL fsync, fate-sharing contenders with the local disk *)
                 persist b entries;
               set_commit b commit;
               Append_resp { term = 1; success = true; match_index = last_index b }
             end)))
  | Request_vote _ | Client_request _ | Pull_oplog _ | Update_position _
  | Transfer_leadership _ | Timeout_now ->
    Some Ack

let applier_loop b =
  let rec loop () =
    if alive b then begin
      if b.last_applied < b.commit_index then begin
        let i = b.last_applied + 1 in
        match Raft.Rlog.get b.rlog i with
        | None -> assert false
        | Some e ->
          cpu_work b Raft.Config.cost_apply_entry;
          let value = Raft.Kv.apply b.kv e in
          b.last_applied <- i;
          (match Hashtbl.find_opt b.by_index i with
          | Some p ->
            Hashtbl.remove b.by_index i;
            p.p_value <- value;
            p.p_ok <- true;
            Depfast.Event.fire p.p_done
          | None -> ());
          loop ()
      end
      else begin
        (* depfast-lint: allow red-exposure — applier handoff signalled by
           the local commit path; no remote peer can stall this condvar *)
        Depfast.Condvar.wait b.sched b.commit_cv;
        loop ()
      end
    end
  in
  loop ()

let handle_client_request b ~cmd ~client_id ~seq =
  let cfg = b.cfg in
  cpu_work b Raft.Config.cost_client_parse;
  if not (is_leader b) then
    Client_resp { ok = false; shed = false; leader_hint = Some b.leader_id; value = None }
  else begin
    let p = enqueue b ~cmd ~client:client_id ~seq in
    let outcome =
      Depfast.Sched.wait_timeout b.sched p.p_done cfg.Raft.Config.client_timeout
    in
    cpu_work b Raft.Config.cost_client_reply;
    match outcome with
    | Depfast.Sched.Ready ->
      Client_resp
        { ok = p.p_ok; shed = false; leader_hint = Some b.leader_id; value = p.p_value }
    | Depfast.Sched.Timed_out ->
      Client_resp { ok = false; shed = false; leader_hint = Some b.leader_id; value = None }
  end

(** A baseline cluster: the system's own state [t] and one base per server,
    leader (node 0) first. *)
type 'a cluster = { t : 'a; bases : base list; rpc : rpc }

(** Build an [n]-server cluster (node ids [0..n-1], names s1..sN): [make]
    turns the bases into the system's state, [handle t b req] answers every
    request but [Client_request], which the leader's queue takes here. The
    caller spawns its own replication loops afterwards. *)
let build sched ~n ~cfg ?mem_soft_cap ?mem_hard_cap ~make ~handle () =
  let rpc : rpc = Cluster.Rpc.create sched () in
  let nodes =
    List.init n (fun i ->
        Cluster.Node.create sched ~id:i ~name:(Printf.sprintf "s%d" (i + 1))
          ?mem_soft_cap ?mem_hard_cap ())
  in
  let ids = List.init n Fun.id in
  let bases =
    List.map
      (fun node ->
        let peers = List.filter (fun p -> p <> Cluster.Node.id node) ids in
        make_base rpc node ~peers ~leader_id:0 ~cfg)
      nodes
  in
  let t = make bases in
  List.iter
    (fun b ->
      Cluster.Rpc.serve rpc ~node:b.node ~handler:(fun ~src:_ req ->
          match req with
          | Client_request { cmd; client_id; seq } ->
            Some (handle_client_request b ~cmd ~client_id ~seq)
          | req -> handle t b req);
      Cluster.Node.spawn b.node ~name:"applier" (fun () -> applier_loop b);
      if cfg.Raft.Config.enable_hiccups then
        Cluster.Node.spawn b.node ~name:"hiccup" (fun () ->
            Raft.Server.hiccup_loop b.node b.rng))
    bases;
  { t; bases; rpc }

(** The system under test. Clients (reusing the Raft client) take node ids
    after every server's and address [servers] (default: all of them). *)
let sut ?servers ~name ~cfg c =
  let leader = List.hd c.bases in
  let servers = Option.value servers ~default:(List.map id c.bases) in
  {
    Workload.Sut.name;
    leader_node = leader.node;
    follower_nodes = List.map (fun b -> b.node) (List.tl c.bases);
    make_clients =
      (fun ~count ->
        let first = List.length c.bases in
        List.init count (fun j ->
            let node =
              Cluster.Node.create leader.sched ~id:(first + j)
                ~name:(Printf.sprintf "c%d" (j + 1)) ()
            in
            Cluster.Rpc.attach c.rpc node;
            let client = Raft.Client.create c.rpc node ~servers ~cfg ~id:(first + j) () in
            {
              Workload.Driver.node;
              run_op =
                (fun op ->
                  let outcome =
                    match op with
                    | Workload.Ycsb.Update { key; value } ->
                      Raft.Client.submit client (Put { key; value })
                    | Workload.Ycsb.Read { key } -> Raft.Client.submit client (Get { key })
                  in
                  match outcome with
                  | Raft.Client.Committed _ -> Workload.Driver.Committed
                  | Raft.Client.Shed -> Workload.Driver.Shed
                  | Raft.Client.Failed -> Workload.Driver.Failed);
            }));
  }
