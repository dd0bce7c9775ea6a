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
  inflight : (int, bool) Hashtbl.t;
  mutable blocked_disk_reads : int;  (** stat: synchronous cache-miss reads *)
}

let entry_size_estimate = 1100

let process_ack t f call =
  let b = t.base in
  Hashtbl.replace t.inflight f false;
  Common.cpu_charge b b.Common.cfg.Raft.Config.cost_ack_process;
  (match Cluster.Rpc.response call with
  | Some (Append_resp { success; match_index; _ }) ->
    if success then begin
      Common.note_match b f match_index;
      Hashtbl.replace t.next_index f (Common.match_of b f + 1);
      Common.commit_majority b
    end
    else Hashtbl.replace t.next_index f (match_index + 1)
  | Some _ | None -> ());
  (* wake the store loop: it may have sends to refill *)
  Depfast.Condvar.broadcast b.Common.work_cv

(* prepare and (if the peer has no message in flight) send one
   AppendEntries; cache misses block the store loop on a disk read *)
let prep_and_send t f =
  let b = t.base in
  let from = Hashtbl.find t.next_index f in
  let last = Common.last_index b in
  if from <= last then begin
    let cache_start = max 1 (last - t.cache_size + 1) in
    let evicted = from < cache_start in
    let stop =
      if evicted then min last (from + t.catchup_max - 1)
      else min last (from + b.Common.cfg.Raft.Config.batch_max - 1)
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
      Hashtbl.replace t.inflight f true;
      let call =
        Common.send_append b ~dst:f
          (Raft.Rlog.slice_array b.Common.rlog ~from ~max:(stop - from + 1))
      in
      Depfast.Event.on_fire (Cluster.Rpc.event call) (fun () -> process_ack t f call)
    end
  end

(* the leader's raftstore thread *)
let raftstore_loop t =
  let b = t.base in
  let needs_send () =
    List.exists
      (fun f ->
        Hashtbl.find t.next_index f <= Common.last_index b && not (Hashtbl.find t.inflight f))
      b.Common.peers
  in
  let rec loop () =
    if Common.alive b then begin
      if not (needs_send ()) then Common.await_work b;
      let entries = Common.seal_batch b in
      (* raft log sync happens in the store loop, synchronously *)
      if Array.length entries > 0 then Common.persist b entries;
      List.iter (fun f -> prep_and_send t f) b.Common.peers;
      loop ()
    end
  in
  loop ()

let create sched ~n ?(cfg = Raft.Config.default) () =
  let make bases =
    let base = List.hd bases in
    let t =
      {
        base;
        cache_size = 2048;
        catchup_max = 512;
        next_index = Hashtbl.create 8;
        inflight = Hashtbl.create 8;
        blocked_disk_reads = 0;
      }
    in
    List.iter
      (fun f ->
        Hashtbl.replace t.next_index f 1;
        Hashtbl.replace t.inflight f false)
      base.Common.peers;
    t
  in
  let c = Common.build sched ~n ~cfg ~make ~handle:Common.handle_append_entries () in
  Cluster.Node.spawn c.t.base.Common.node ~name:"raftstore" (fun () -> raftstore_loop c.t);
  c

let sut c ~cfg = Common.sut c ~name:"TiDB-like" ~cfg
let blocked_disk_reads (c : t Common.cluster) = c.t.blocked_disk_reads

(** Ablation knob: a cache large enough never to evict removes the blocking
    disk reads (and with them, most of the fail-slow propagation). *)
let set_cache_size (c : t Common.cluster) size = c.t.cache_size <- size
