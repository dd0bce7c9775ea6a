(** The TiDB-like baseline: single-threaded raftstore with an EntryCache.

    Reproduces the root cause the paper diagnosed (§2.2, confirmed by the
    developers): the raftstore runs {e one thread per data region}; when a
    fail-slow follower falls behind the in-memory EntryCache window, message
    preparation for that peer must re-read the evicted entries from disk —
    {e synchronously, on that one thread} — stalling batching, WAL writes
    and sends for every other request of the region. The commit rule itself
    is a healthy majority (acks advance the commit index as they arrive);
    the stall is purely an implementation artifact.

    Concretely here:
    - all leader-side raft work (batching, append, WAL, message prep,
      sends) happens in one [raftstore] coroutine;
    - the EntryCache holds the most recent [cache_size] entries; while any
      follower's [next_index] is below the window, each loop iteration pays
      a blocking {!Cluster.Disk.read} of the catch-up range (message
      preparation re-fetches from log storage every ready-cycle);
    - the WAL write is awaited inside the loop (TiDB syncs raft log in the
      store loop);
    - acks are processed as they arrive and advance the commit index; the
      applier completes client requests. *)

open Raft.Types

type t = {
  base : Common.base;
  mutable cache_size : int;
  catchup_max : int;
  next_index : (int, index) Hashtbl.t;
  match_index : (int, index) Hashtbl.t;
  inflight : (int, bool) Hashtbl.t;
  mutable blocked_disk_reads : int;  (** stat: synchronous cache-miss reads *)
}

let entry_size_estimate = 1100

(* ---------- follower ---------- *)

let handle_append_entries b ~prev_index ~entries ~commit =
  (* the replication stream is processed serially, in delivery order *)
  Depfast.Mutex.with_lock b.Common.sched b.Common.append_mu (fun () ->
      let cfg = b.Common.cfg in
      (* depfast-lint: allow lock-across-call — deliberate baseline defect:
         per-entry CPU work runs inside the append lock *)
      Cluster.Node.cpu_work b.Common.node
        (cfg.Raft.Config.cost_follower_fixed
        + (Array.length entries * cfg.Raft.Config.cost_follower_entry));
      if prev_index > Raft.Rlog.last_index b.Common.rlog then
        Append_resp
          { term = 1; success = false; match_index = Raft.Rlog.last_index b.Common.rlog }
      else begin
        Common.follower_append_a b entries;
        if Array.length entries > 0 then
          (* depfast-lint: allow lock-across-call red-exposure — deliberate
             baseline defect: raftstore holds the region lock across WAL
             fsync, fate-sharing every contender with the local disk *)
          Depfast.Sched.wait b.Common.sched
            (Common.wal_append b ~bytes:(Common.wal_bytes_a b entries));
        Common.set_commit b commit;
        Append_resp
          { term = 1; success = true; match_index = Raft.Rlog.last_index b.Common.rlog }
      end)

(* ---------- leader raftstore thread ---------- *)

let advance_commit t =
  let b = t.base in
  let matches =
    Raft.Rlog.last_index b.Common.rlog
    :: List.map (fun f -> Hashtbl.find t.match_index f) b.Common.peers
  in
  let sorted = List.sort (fun a b -> compare b a) matches in
  Common.set_commit b (List.nth sorted (Raft.Config.majority b.Common.n_voters - 1))

let process_ack t f call =
  Hashtbl.replace t.inflight f false;
  Common.cpu_charge t.base t.base.Common.cfg.Raft.Config.cost_ack_process;
  (match Cluster.Rpc.response call with
  | Some (Append_resp { success; match_index; _ }) ->
    if success then begin
      Hashtbl.replace t.match_index f (max match_index (Hashtbl.find t.match_index f));
      Hashtbl.replace t.next_index f (Hashtbl.find t.match_index f + 1);
      advance_commit t
    end
    else Hashtbl.replace t.next_index f (match_index + 1)
  | Some _ | None -> ());
  (* wake the store loop: it may have sends to refill *)
  Depfast.Condvar.broadcast t.base.Common.work_cv

(* prepare and (if the peer has no message in flight) send one
   AppendEntries; cache misses block the store loop on a disk read *)
let prep_and_send t f =
  let b = t.base in
  let cfg = b.Common.cfg in
  let from = Hashtbl.find t.next_index f in
  let last = Raft.Rlog.last_index b.Common.rlog in
  if from <= last then begin
    let cache_start = max 1 (last - t.cache_size + 1) in
    let evicted = from < cache_start in
    let stop =
      if evicted then min last (from + t.catchup_max - 1)
      else min last (from + cfg.Raft.Config.batch_max - 1)
    in
    if evicted then begin
      (* EntryCache miss: message preparation re-reads the evicted range
         from disk, blocking the whole region thread (the bug) *)
      t.blocked_disk_reads <- t.blocked_disk_reads + 1;
      let bytes = (stop - from + 1) * entry_size_estimate in
      (* depfast-lint: allow red-exposure — deliberate baseline
         defect: the TiDB EntryCache miss blocks message prep on a disk
         read (§2) *)
      Depfast.Sched.wait b.Common.sched
        (Cluster.Disk.read (Cluster.Node.disk b.Common.node) ~bytes)
    end;
    if not (Hashtbl.find t.inflight f) then begin
      let entries = Raft.Rlog.slice_array b.Common.rlog ~from ~max:(stop - from + 1) in
      Cluster.Node.cpu_work b.Common.node
        (cfg.Raft.Config.cost_per_follower
        + (Array.length entries * cfg.Raft.Config.cost_send_entry));
      Hashtbl.replace t.inflight f true;
      let call =
        Cluster.Rpc.call b.Common.rpc ~src:b.Common.node ~dst:f
          ~bytes:(256 + entries_bytes_a entries)
          (Append_entries
             {
               term = 1;
               leader = Cluster.Node.id b.Common.node;
               prev_index = from - 1;
               prev_term = 1;
               (* baselines ship a copied batch, wrapped as an owned view *)
               entries = view_of_array entries;
               commit = b.Common.commit_index;
             })
      in
      Depfast.Event.on_fire (Cluster.Rpc.event call) (fun () -> process_ack t f call)
    end
  end

let raftstore_loop t =
  let b = t.base in
  let cfg = b.Common.cfg in
  let needs_send () =
    List.exists
      (fun f ->
        Hashtbl.find t.next_index f <= Raft.Rlog.last_index b.Common.rlog
        && not (Hashtbl.find t.inflight f))
      b.Common.peers
  in
  let rec loop () =
    if Common.alive b then begin
      if Queue.is_empty b.Common.pending_q && not (needs_send ()) then
        ignore
          (Depfast.Condvar.wait_timeout b.Common.sched b.Common.work_cv
             cfg.Raft.Config.group_commit_window);
      let batch = Common.take_batch b cfg.Raft.Config.batch_max in
      let entries = Common.append_batch b batch in
      let n = List.length entries in
      if n > 0 then begin
        Cluster.Node.cpu_work b.Common.node
          (cfg.Raft.Config.cost_round_fixed + (n * cfg.Raft.Config.cost_marshal_entry));
        (* raft log sync happens in the store loop, synchronously;
           depfast-lint: allow red-exposure — own-WAL durability wait *)
        Depfast.Sched.wait b.Common.sched
          (Common.wal_append b ~bytes:(Common.wal_bytes b entries))
      end;
      List.iter (fun f -> prep_and_send t f) b.Common.peers;
      loop ()
    end
  in
  loop ()

(* ---------- construction ---------- *)

type cluster = { t : t; bases : Common.base list; rpc : Common.rpc }

let handle t b ~src:_ req =
  match req with
  | Client_request { cmd; client_id; seq } ->
    Some (Common.handle_client_request b ~cmd ~client_id ~seq)
  | Append_entries { prev_index; entries; commit; _ } -> (
    match view_materialize entries with
    | None -> None
    | Some entries -> Some (handle_append_entries b ~prev_index ~entries ~commit))
  | Request_vote _ | Pull_oplog _ | Update_position _ | Transfer_leadership _
  | Timeout_now ->
    ignore t;
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
      cache_size = 2048;
      catchup_max = 512;
      next_index = Hashtbl.create 8;
      match_index = Hashtbl.create 8;
      inflight = Hashtbl.create 8;
      blocked_disk_reads = 0;
    }
  in
  List.iter
    (fun f ->
      Hashtbl.replace t.next_index f 1;
      Hashtbl.replace t.match_index f 0;
      Hashtbl.replace t.inflight f false)
    leader_base.Common.peers;
  List.iter
    (fun b ->
      Cluster.Rpc.serve rpc ~node:b.Common.node ~handler:(fun ~src req ->
          handle t b ~src req);
      Common.start_common b)
    bases;
  Cluster.Node.spawn leader_base.Common.node ~name:"raftstore" (fun () ->
      raftstore_loop t);
  { t; bases; rpc }

let sut c ~cfg =
  let leader = List.hd c.bases and followers = List.tl c.bases in
  {
    Workload.Sut.name = "TiDB-like";
    leader_node = leader.Common.node;
    follower_nodes = List.map (fun b -> b.Common.node) followers;
    make_clients =
      (fun ~count ->
        Common.make_clients c.rpc ~sched:leader.Common.sched
          ~server_ids:(List.map (fun b -> Cluster.Node.id b.Common.node) c.bases)
          ~cfg ~count);
  }

let blocked_disk_reads c = c.t.blocked_disk_reads

(** Ablation knob: a cache large enough never to evict removes the blocking
    disk reads (and with them, most of the fail-slow propagation). *)
let set_cache_size c size = c.t.cache_size <- size
