(** The MongoDB-like baseline: pull-based oplog replication with periodic
    majority-commit-point advancement.

    Replication is secondary-driven: each follower tails the leader's oplog
    with pull RPCs and reports progress with position updates. A
    [w:majority] write completes when the {e majority commit point} — which
    the leader recomputes on a fixed ticker, as the real system does on
    heartbeat/progress cadence — passes the write's index.

    Why this degrades under a fail-slow follower:
    - {e tail amplification} (§2.2's third root cause): with one follower
      slowed, the majority point is pinned to the {e one} remaining healthy
      follower, so every pull-cycle wobble, CPU hiccup, or fsync stall on
      that node lands directly on client latency — there is no second
      follower to hide it;
    - {e catch-up serving}: once the slow follower's position falls out of
      the leader's in-memory oplog window, serving its pulls means cold
      reads from the leader's storage engine and evicting hot cache pages.
      The reads share the leader's disk with the WAL, and the cache
      interference taxes the leader's CPU while the lag persists (modelled
      as a constant factor — DESIGN.md §5 documents this substitution). *)

open Raft.Types

type t = {
  base : Common.base;
  match_index : (int, index) Hashtbl.t;
  commit_tick : Sim.Time.span;
  pull_idle_delay : Sim.Time.span;
  oplog_window : int;  (** entries kept hot in the leader's cache *)
  catchup_max : int;  (** entries per catch-up pull *)
  cache_tax : float;  (** leader CPU factor while a secondary lags *)
  mutable lag_mode : bool;
  mutable cold_pulls : int;
}

(* ---------- leader ---------- *)

let entry_size_estimate = 1100

let handle_pull t b ~from =
  let cfg = b.Common.cfg in
  let last = Raft.Rlog.last_index b.Common.rlog in
  let cache_start = max 1 (last - t.oplog_window + 1) in
  let max_entries =
    if from < cache_start then begin
      (* cold pull: the range was evicted; read it back from storage,
         contending with the WAL on the same disk *)
      t.cold_pulls <- t.cold_pulls + 1;
      let stop = min last (from + t.catchup_max - 1) in
      let bytes = (stop - from + 1) * entry_size_estimate in
      (* depfast-lint: allow red-exposure — deliberate baseline
         defect: cold catch-up reads block on the data disk (§2's
         contention source) *)
      Depfast.Sched.wait b.Common.sched
        (Cluster.Disk.read (Cluster.Node.disk b.Common.node) ~bytes);
      t.catchup_max
    end
    else cfg.Raft.Config.batch_max
  in
  let entries = Raft.Rlog.slice b.Common.rlog ~from ~max:max_entries in
  Cluster.Node.cpu_work b.Common.node
    (cfg.Raft.Config.cost_per_follower
    + (List.length entries * cfg.Raft.Config.cost_send_entry));
  Oplog_resp
    {
      entries;
      prev_index = from - 1;
      prev_term = 1;
      commit = b.Common.commit_index;
    }

(* cache-interference watcher: while any secondary's reported position is
   outside the hot oplog window, the leader pays [cache_tax] on its CPU *)
let lag_watcher_loop t =
  let b = t.base in
  let cpu = Cluster.Node.cpu b.Common.node in
  let rec loop () =
    if Common.alive b then begin
      Depfast.Sched.sleep b.Common.sched (Sim.Time.ms 50);
      let last = Raft.Rlog.last_index b.Common.rlog in
      let lagging =
        List.exists
          (fun f ->
            let m = Option.value ~default:0 (Hashtbl.find_opt t.match_index f) in
            last - m > t.oplog_window)
          b.Common.peers
      in
      if lagging && not t.lag_mode then begin
        t.lag_mode <- true;
        Cluster.Station.set_speed cpu (Cluster.Station.speed cpu *. t.cache_tax)
      end
      else if (not lagging) && t.lag_mode then begin
        t.lag_mode <- false;
        Cluster.Station.set_speed cpu (Cluster.Station.speed cpu /. t.cache_tax)
      end;
      loop ()
    end
  in
  loop ()

let handle_position t ~follower ~match_index =
  Common.cpu_charge t.base t.base.Common.cfg.Raft.Config.cost_ack_process;
  (match Hashtbl.find_opt t.match_index follower with
  | Some old when match_index <= old -> ()
  | Some _ | None -> Hashtbl.replace t.match_index follower match_index);
  Ack

(* the ticker: recompute the majority commit point every [commit_tick] —
   client writes only complete when a tick advances past their index *)
let commit_ticker_loop t =
  let b = t.base in
  let rec loop () =
    if Common.alive b then begin
      Depfast.Sched.sleep b.Common.sched t.commit_tick;
      let matches =
        Raft.Rlog.last_index b.Common.rlog
        :: List.map
             (fun f -> Option.value ~default:0 (Hashtbl.find_opt t.match_index f))
             b.Common.peers
      in
      let sorted = List.sort (fun a b -> compare b a) matches in
      Common.set_commit b (List.nth sorted (Raft.Config.majority b.Common.n_voters - 1));
      loop ()
    end
  in
  loop ()

(* leader write path: batch, append, WAL; completion is the ticker's job *)
let oplog_writer_loop t =
  let b = t.base in
  let cfg = b.Common.cfg in
  let rec loop () =
    if Common.alive b then begin
      if Queue.is_empty b.Common.pending_q then
        ignore
          (Depfast.Condvar.wait_timeout b.Common.sched b.Common.work_cv
             cfg.Raft.Config.group_commit_window);
      let batch = Common.take_batch b cfg.Raft.Config.batch_max in
      let entries = Common.append_batch b batch in
      let n = List.length entries in
      if n > 0 then begin
        Cluster.Node.cpu_work b.Common.node
          (cfg.Raft.Config.cost_round_fixed + (n * cfg.Raft.Config.cost_marshal_entry));
        (* depfast-lint: allow red-exposure — own-oplog durability wait:
           the single writer loop serialises on its local disk by design *)
        Depfast.Sched.wait b.Common.sched
          (Common.wal_append b ~bytes:(Common.wal_bytes b entries))
      end;
      loop ()
    end
  in
  loop ()

(* ---------- follower ---------- *)

let puller_loop t b =
  let cfg = b.Common.cfg in
  let leader = b.Common.leader_id in
  let rec loop () =
    if Common.alive b then begin
      let from = Raft.Rlog.last_index b.Common.rlog + 1 in
      let call =
        Cluster.Rpc.call b.Common.rpc ~src:b.Common.node ~dst:leader
          (Pull_oplog { from; follower = Cluster.Node.id b.Common.node })
      in
      match
        (* pull replication: a follower tails exactly one sync source by
           design, so this wait is single-peer, bounded by the timeout *)
        Depfast.Sched.wait_timeout b.Common.sched (Cluster.Rpc.event call)
          cfg.Raft.Config.rpc_timeout
      with
      | Depfast.Sched.Timed_out ->
        Cluster.Rpc.abandon call;
        loop ()
      | Depfast.Sched.Ready -> (
        match Cluster.Rpc.response call with
        | Some (Oplog_resp { entries; commit; _ }) ->
          let n = List.length entries in
          if n > 0 then begin
            Cluster.Node.cpu_work b.Common.node
              (cfg.Raft.Config.cost_follower_fixed
              + (n * cfg.Raft.Config.cost_follower_entry));
            Common.follower_append b entries;
            (* depfast-lint: allow red-exposure — follower persists pulled
               entries to its own WAL before acking; local disk only *)
            Depfast.Sched.wait b.Common.sched
              (Common.wal_append b ~bytes:(Common.wal_bytes b entries));
            Common.set_commit b commit;
            (* report progress *)
            ignore
              (Cluster.Rpc.call b.Common.rpc ~src:b.Common.node ~dst:leader
                 (Update_position
                    {
                      follower = Cluster.Node.id b.Common.node;
                      match_index = Raft.Rlog.last_index b.Common.rlog;
                      term = 1;
                    }))
          end
          else begin
            Common.set_commit b commit;
            Depfast.Sched.sleep b.Common.sched t.pull_idle_delay
          end;
          loop ()
        | Some _ | None -> loop ())
    end
  in
  loop ()

(* ---------- construction ---------- *)

type cluster = { t : t; bases : Common.base list; rpc : Common.rpc }

let handle t b ~src:_ req =
  match req with
  | Client_request { cmd; client_id; seq } ->
    Some (Common.handle_client_request b ~cmd ~client_id ~seq)
  | Pull_oplog { from; follower = _ } -> Some (handle_pull t b ~from)
  | Update_position { follower; match_index; term = _ } ->
    Some (handle_position t ~follower ~match_index)
  | Append_entries _ | Request_vote _ | Transfer_leadership _ | Timeout_now ->
    Some Ack

let create sched ~n ?(cfg = Raft.Config.default) () =
  let rpc, nodes = Common.make_cluster sched ~n () in
  let ids = List.map Cluster.Node.id nodes in
  let bases =
    List.map
      (fun node ->
        let peers = List.filter (fun p -> p <> Cluster.Node.id node) ids in
        Common.make_base rpc node ~peers ~leader_id:0 ~cfg)
      nodes
  in
  let leader_base = List.hd bases in
  let t =
    {
      base = leader_base;
      match_index = Hashtbl.create 8;
      commit_tick = Sim.Time.ms 10;
      pull_idle_delay = Sim.Time.ms 2;
      oplog_window = 2048;
      catchup_max = 256;
      cache_tax = 1.3;
      lag_mode = false;
      cold_pulls = 0;
    }
  in
  List.iter
    (fun b ->
      Cluster.Rpc.serve rpc ~node:b.Common.node ~handler:(fun ~src req ->
          handle t b ~src req);
      Common.start_common b)
    bases;
  Cluster.Node.spawn leader_base.Common.node ~name:"oplog-writer" (fun () ->
      oplog_writer_loop t);
  Cluster.Node.spawn leader_base.Common.node ~name:"commit-ticker" (fun () ->
      commit_ticker_loop t);
  Cluster.Node.spawn leader_base.Common.node ~name:"lag-watcher" (fun () ->
      lag_watcher_loop t);
  List.iter
    (fun b ->
      if not (Common.is_leader b) then
        Cluster.Node.spawn b.Common.node ~name:"oplog-puller" (fun () -> puller_loop t b))
    bases;
  { t; bases; rpc }

let cold_pulls c = c.t.cold_pulls
let in_lag_mode c = c.t.lag_mode

let sut c ~cfg =
  let leader = List.hd c.bases and followers = List.tl c.bases in
  {
    Workload.Sut.name = "MongoDB-like";
    leader_node = leader.Common.node;
    follower_nodes = List.map (fun b -> b.Common.node) followers;
    make_clients =
      (fun ~count ->
        Common.make_clients c.rpc ~sched:leader.Common.sched
          ~server_ids:(List.map (fun b -> Cluster.Node.id b.Common.node) c.bases)
          ~cfg ~count);
  }
