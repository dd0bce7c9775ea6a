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
  base : Raft.Replica.t;
  mutable cache_size : int;
  mutable blocked_disk_reads : int;  (** stat: synchronous cache-miss reads *)
}

let catchup_max = 512
let entry_size_estimate = 1100

let process_ack t (fs : Raft.Replica.follower) call =
  let b = t.base in
  fs.inflight <- 0;
  Cluster.Node.cpu_charge b.node Raft.Config.cost_ack_process;
  (match Cluster.Rpc.response call with
  | Some (Append_resp { success; match_index; _ }) ->
    if success then begin
      Common.note_match fs match_index;
      fs.next_index <- fs.match_index + 1;
      Common.commit_majority b
    end
    else fs.next_index <- match_index + 1
  | Some _ | None -> ());
  (* wake the store loop: it may have sends to refill *)
  Depfast.Condvar.broadcast b.work_cv

(* prepare and (if the peer has no message in flight) send one
   AppendEntries; cache misses block the store loop on a disk read *)
let prep_and_send t (fs : Raft.Replica.follower) =
  let b = t.base in
  let from = fs.next_index in
  let last = Raft.Rlog.last_index b.rlog in
  if from <= last then begin
    let cache_start = max 1 (last - t.cache_size + 1) in
    let evicted = from < cache_start in
    let stop =
      if evicted then min last (from + catchup_max - 1)
      else min last (from + Raft.Config.batch_max - 1)
    in
    if evicted then begin
      (* EntryCache miss: message preparation re-reads the evicted range
         from disk, blocking the whole region thread (the bug) *)
      t.blocked_disk_reads <- t.blocked_disk_reads + 1;
      let bytes = (stop - from + 1) * entry_size_estimate in
      (* depfast-lint: allow red-exposure — deliberate baseline
         defect: the TiDB EntryCache miss blocks message prep on a disk
         read (§2) *)
      Depfast.Sched.wait b.sched (Cluster.Disk.read (Cluster.Node.disk b.node) ~bytes)
    end;
    if fs.inflight = 0 then begin
      fs.inflight <- 1;
      let call =
        Common.send_append b ~dst:fs.f_id
          (Raft.Rlog.slice_array b.rlog ~from ~max:(stop - from + 1))
      in
      Depfast.Event.on_fire (Cluster.Rpc.event call) (fun () -> process_ack t fs call)
    end
  end

(* the leader's raftstore thread *)
let raftstore_loop t =
  let b = t.base in
  let followers = List.map (Hashtbl.find b.followers) b.peers in
  let needs_send () =
    List.exists
      (fun (fs : Raft.Replica.follower) ->
        fs.next_index <= Raft.Rlog.last_index b.rlog && fs.inflight = 0)
      followers
  in
  let rec loop () =
    if Cluster.Node.alive b.node then begin
      if not (needs_send ()) then Raft.Server.await_work b;
      let entries = Common.seal_batch b in
      (* raft log sync happens in the store loop, synchronously *)
      if Array.length entries > 0 then Raft.Server.persist b entries;
      List.iter (fun fs -> prep_and_send t fs) followers;
      loop ()
    end
  in
  loop ()

let create sched ~n ?(cfg = Raft.Config.default) () =
  let make bases = { base = List.hd bases; cache_size = 2048; blocked_disk_reads = 0 } in
  let c =
    Common.build sched ~n ~cfg ~make ~handle:(fun _ b req -> Raft.Server.handle b req) ()
  in
  Cluster.Node.spawn c.t.base.node ~name:"raftstore" (fun () -> raftstore_loop c.t);
  c

let sut (c : t Common.cluster) = Raft.Group.sut c.g ~name:"TiDB-like"
let blocked_disk_reads (c : t Common.cluster) = c.t.blocked_disk_reads

(** Ablation knob: a cache large enough never to evict removes the blocking
    disk reads (and with them, most of the fail-slow propagation). *)
let set_cache_size (c : t Common.cluster) size = c.t.cache_size <- size
