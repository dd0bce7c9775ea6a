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
  base : Raft.Replica.t;
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

let handle_pull t (b : Raft.Replica.t) ~from =
  let last = Raft.Rlog.last_index b.rlog in
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
      Depfast.Sched.wait b.sched (Cluster.Disk.read (Cluster.Node.disk b.node) ~bytes);
      t.catchup_max
    end
    else Raft.Config.batch_max
  in
  let entries = Raft.Rlog.slice_array b.rlog ~from ~max:max_entries in
  Cluster.Node.cpu_work b.node
    (Raft.Config.cost_per_follower
    + (Array.length entries * Raft.Config.cost_send_entry));
  Oplog_resp { entries; prev_index = from - 1; prev_term = 1; commit = b.commit_index }

(* cache-interference watcher: while any secondary's reported position is
   outside the hot oplog window, the leader pays [cache_tax] on its CPU *)
let lag_watcher_loop t =
  let b = t.base in
  let cpu = Cluster.Node.cpu b.node in
  let rec loop () =
    if Cluster.Node.alive b.node then begin
      Depfast.Sched.sleep b.sched (Sim.Time.ms 50);
      let last = Raft.Rlog.last_index b.rlog in
      let lagging =
        List.exists
          (fun f -> last - (Hashtbl.find b.followers f).match_index > t.oplog_window)
          b.peers
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

(* the ticker: recompute the majority commit point every [commit_tick] —
   client writes only complete when a tick advances past their index *)
let commit_ticker_loop t =
  let b = t.base in
  let rec loop () =
    if Cluster.Node.alive b.node then begin
      Depfast.Sched.sleep b.sched t.commit_tick;
      Common.commit_majority b;
      loop ()
    end
  in
  loop ()

(* leader write path: batch, append, WAL; completion is the ticker's job *)
let oplog_writer_loop t =
  let b = t.base in
  let rec loop () =
    if Cluster.Node.alive b.node then begin
      Raft.Server.await_work b;
      let entries = Common.seal_batch b in
      if Array.length entries > 0 then Raft.Server.persist b entries;
      loop ()
    end
  in
  loop ()

(* ---------- follower ---------- *)

let puller_loop t (b : Raft.Replica.t) =
  let cfg = b.cfg in
  let leader = Raft.Server.id t.base and me = Raft.Server.id b in
  let rec loop () =
    if Cluster.Node.alive b.node then begin
      let call =
        Cluster.Rpc.call b.rpc ~src:b.node ~dst:leader
          (Pull_oplog { from = Raft.Rlog.last_index b.rlog + 1; follower = me })
      in
      match
        (* pull replication: a follower tails exactly one sync source by
           design, so this wait is single-peer, bounded by the timeout *)
        Depfast.Sched.wait_timeout b.sched (Cluster.Rpc.event call)
          cfg.Raft.Config.rpc_timeout
      with
      | Depfast.Sched.Timed_out ->
        Cluster.Rpc.abandon call;
        loop ()
      | Depfast.Sched.Ready -> (
        match Cluster.Rpc.response call with
        | Some (Oplog_resp { entries; commit; _ }) ->
          let n = Array.length entries in
          if n > 0 then begin
            Cluster.Node.cpu_work b.node
              (Raft.Config.cost_follower_fixed
              + (n * Raft.Config.cost_follower_entry));
            Array.iter
              (fun e ->
                (* depfast-lint: allow unbounded-growth — known-unbounded
                   log: one fixed leader, so the puller never truncates
                   (ROADMAP: log compaction / snapshots) *)
                if e.index = Raft.Rlog.last_index b.rlog + 1 then Raft.Rlog.append b.rlog e)
              entries;
            Raft.Server.persist b entries;
            Raft.Server.set_commit b commit;
            (* report progress *)
            ignore
              (Cluster.Rpc.call b.rpc ~src:b.node ~dst:leader
                 (Update_position
                    { follower = me; match_index = Raft.Rlog.last_index b.rlog; term = 1 }))
          end
          else begin
            Raft.Server.set_commit b commit;
            Depfast.Sched.sleep b.sched t.pull_idle_delay
          end;
          loop ()
        | Some _ | None -> loop ())
    end
  in
  loop ()

(* ---------- construction ---------- *)

let handle t b req =
  match req with
  | Pull_oplog { from; follower = _ } -> Some (handle_pull t b ~from)
  | Update_position { follower; match_index; term = _ } ->
    Cluster.Node.cpu_charge t.base.node Raft.Config.cost_ack_process;
    Common.note_match (Hashtbl.find t.base.followers follower) match_index;
    Some Ack
  | req -> Raft.Server.handle b req

let create sched ~n ?(cfg = Raft.Config.default) () =
  let make bases =
    {
      base = List.hd bases;
      commit_tick = Sim.Time.ms 10;
      pull_idle_delay = Sim.Time.ms 2;
      oplog_window = 2048;
      catchup_max = 256;
      cache_tax = 1.3;
      lag_mode = false;
      cold_pulls = 0;
    }
  in
  let c = Common.build sched ~n ~cfg ~make ~handle () in
  let leader = c.t.base.node in
  Cluster.Node.spawn leader ~name:"oplog-writer" (fun () -> oplog_writer_loop c.t);
  Cluster.Node.spawn leader ~name:"commit-ticker" (fun () -> commit_ticker_loop c.t);
  Cluster.Node.spawn leader ~name:"lag-watcher" (fun () -> lag_watcher_loop c.t);
  List.iter
    (fun b ->
      if not (Raft.Server.is_leader b) then
        Cluster.Node.spawn b.node ~name:"oplog-puller" (fun () -> puller_loop c.t b))
    c.g.Raft.Group.servers;
  c

let cold_pulls (c : t Common.cluster) = c.t.cold_pulls
let in_lag_mode (c : t Common.cluster) = c.t.lag_mode
let sut (c : t Common.cluster) = Raft.Group.sut c.g ~name:"MongoDB-like"
