(** The RethinkDB-like baseline: unbounded leader-side replication buffers.

    Reproduces the paper's §2.2 root cause (confirmed by the developers):
    the leader keeps an {e unbounded buffer of outgoing writes per replica}.
    A fail-slow follower drains its buffer slower than writes arrive, so the
    buffer grows without bound; the leader first slows down under memory
    pressure (page-cache eviction / swapping) and eventually the process is
    OOM-killed — the paper observed exactly this leader crash under CPU
    fail-slow faults.

    The commit rule is a healthy majority quorum (leader WAL + follower
    acks): the protocol is fine. The defect is purely that nothing bounds —
    or discards, cf. the §2.3 framework discussion — the straggler's queue.

    The nodes run with a memory configuration representative of a
    cache-limited deployment (small headroom above the resident set), scaled
    to simulation timescales so that a ~10–20 s fail-slow episode reaches
    the OOM threshold, like hours-long episodes do in production. *)

open Raft.Types

type buffer = {
  entries : entry Queue.t;
  mutable bytes : int;
  drain_cv : Depfast.Condvar.t;
}

type t = {
  base : Common.base;
  buffers : (int, buffer) Hashtbl.t;
  (* per-round progress watchers, as in DepFastRaft *)
  watchers : (int, (index * Depfast.Event.t) list ref) Hashtbl.t;
}

let soft_headroom = 16 * 1024 * 1024
let hard_headroom = 40 * 1024 * 1024

let fire_watchers t f =
  let ws = Hashtbl.find t.watchers f in
  let m = Common.match_of t.base f in
  let ready, rest = List.partition (fun (idx, _) -> idx <= m) !ws in
  ws := rest;
  List.iter (fun (_, ev) -> Depfast.Event.fire ev) ready

(* push new entries into every follower's unbounded buffer; bytes are
   charged to the leader's memory until drained — the defect *)
let buffer_entries t entries =
  let b = t.base in
  List.iter
    (fun f ->
      let buf = Hashtbl.find t.buffers f in
      Array.iter
        (fun e ->
          (* depfast-lint: allow unbounded-growth — deliberate baseline
             defect: the paper's RethinkDB per-follower backlog (§2);
             buffered entries are shed only by the drainer, never here *)
          Queue.add e buf.entries;
          let sz = entry_bytes e in
          buf.bytes <- buf.bytes + sz;
          Cluster.Memory.alloc (Cluster.Node.memory b.Common.node) sz)
        entries;
      Depfast.Condvar.broadcast buf.drain_cv)
    b.Common.peers

(* one drainer coroutine per follower: streams buffered writes in order,
   keeping up to [window_bytes] on the wire (a TCP-window-like bound), and
   releasing leader memory only when the follower acknowledges. A pure
   delay fault (tc 400ms) therefore costs one bandwidth-delay product of
   memory and stabilizes; a fail-slow follower whose *drain rate* drops
   below the write rate grows the buffer without bound — the defect. *)
let window_bytes = 8 * 1024 * 1024

let drainer_loop t f =
  let b = t.base in
  let buf = Hashtbl.find t.buffers f in
  let outstanding = ref 0 in
  let rec loop () =
    if Common.alive b then begin
      if Queue.is_empty buf.entries || !outstanding >= window_bytes then
        (* depfast-lint: allow red-exposure — drain handoff signalled by the
           local buffer producer; idling here is the intended backpressure *)
        Depfast.Condvar.wait b.Common.sched buf.drain_cv
      else begin
        let entries =
          Array.init
            (min b.Common.cfg.Raft.Config.batch_max (Queue.length buf.entries))
            (fun _ -> Queue.pop buf.entries)
        in
        let bytes = entries_bytes entries in
        outstanding := !outstanding + bytes;
        let call = Common.send_append b ~dst:f entries in
        Depfast.Event.on_fire (Cluster.Rpc.event call) (fun () ->
            Common.cpu_charge b b.Common.cfg.Raft.Config.cost_ack_process;
            outstanding := !outstanding - bytes;
            (match Cluster.Rpc.response call with
            | Some (Append_resp { success = true; match_index; _ }) ->
              (* acknowledged: finally release the buffered bytes *)
              buf.bytes <- buf.bytes - bytes;
              Cluster.Memory.free (Cluster.Node.memory b.Common.node) bytes;
              Common.note_match b f match_index;
              fire_watchers t f;
              Common.commit_majority b
            | Some _ | None -> ());
            Depfast.Condvar.broadcast buf.drain_cv)
      end;
      loop ()
    end
  in
  loop ()

let replicator_loop t =
  let b = t.base in
  let rec loop () =
    if Common.alive b then begin
      Common.await_work b;
      let entries = Common.seal_batch b in
      if Array.length entries > 0 then begin
        let last = Common.last_index b in
        let wal_ev = Common.wal_append b entries in
        let quorum =
          Depfast.Event.quorum ~label:"rethink-majority"
            (Depfast.Event.Count (Raft.Config.majority b.Common.n_voters))
        in
        Depfast.Event.add quorum ~child:wal_ev;
        (* attach all children before firing any (a fired child can
           complete the quorum) *)
        List.iter
          (fun f ->
            let ack = Depfast.Event.rpc_completion ~label:"repl-progress" ~peer:f () in
            let ws = Hashtbl.find t.watchers f in
            ws := (last, ack) :: !ws;
            Depfast.Event.add quorum ~child:ack)
          b.Common.peers;
        List.iter (fun f -> fire_watchers t f) b.Common.peers;
        buffer_entries t entries;
        match
          Depfast.Sched.wait_timeout b.Common.sched quorum
            b.Common.cfg.Raft.Config.rpc_timeout
        with
        | Depfast.Sched.Ready -> Common.commit_majority b
        | Depfast.Sched.Timed_out -> ()
      end;
      loop ()
    end
  in
  loop ()

let create sched ~n ?(cfg = Raft.Config.default) () =
  let resident = 200 * 1024 * 1024 in
  let make bases =
    let base = List.hd bases in
    let t = { base; buffers = Hashtbl.create 8; watchers = Hashtbl.create 8 } in
    List.iter
      (fun f ->
        Hashtbl.replace t.buffers f
          {
            entries = Queue.create ();
            bytes = 0;
            drain_cv = Depfast.Condvar.create ~label:"drain" ();
          };
        Hashtbl.replace t.watchers f (ref []))
      base.Common.peers;
    t
  in
  let c =
    Common.build sched ~n ~cfg
      ~mem_soft_cap:(resident + soft_headroom)
      ~mem_hard_cap:(resident + hard_headroom) ~make ~handle:Common.handle_append_entries ()
  in
  let leader = c.t.base.Common.node in
  Cluster.Node.spawn leader ~name:"replicator" (fun () -> replicator_loop c.t);
  List.iter
    (fun f ->
      Cluster.Node.spawn leader ~name:(Printf.sprintf "drainer.%d" f) (fun () ->
          drainer_loop c.t f))
    c.t.base.Common.peers;
  c

let sut c ~cfg = Common.sut c ~name:"RethinkDB-like" ~cfg
let buffer_bytes (c : t Common.cluster) f = (Hashtbl.find c.t.buffers f).bytes
