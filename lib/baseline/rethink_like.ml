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
  match_index : (int, index) Hashtbl.t;
  (* per-round progress watchers, as in DepFastRaft *)
  watchers : (int, (index * Depfast.Event.t) list ref) Hashtbl.t;
}

let soft_headroom = 16 * 1024 * 1024
let hard_headroom = 40 * 1024 * 1024

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
             baseline defect: the RethinkDB coroutine-lock hazard from §2,
             fate-sharing the lock holder with its own slow WAL *)
          Depfast.Sched.wait b.Common.sched
            (Common.wal_append b ~bytes:(Common.wal_bytes_a b entries));
        Common.set_commit b commit;
        Append_resp
          { term = 1; success = true; match_index = Raft.Rlog.last_index b.Common.rlog }
      end)

(* ---------- leader ---------- *)

let advance_commit t =
  let b = t.base in
  let matches =
    Raft.Rlog.last_index b.Common.rlog
    :: List.map (fun f -> Hashtbl.find t.match_index f) b.Common.peers
  in
  let sorted = List.sort (fun a b -> compare b a) matches in
  Common.set_commit b (List.nth sorted (Raft.Config.majority b.Common.n_voters - 1))

let fire_watchers t f =
  let ws = Hashtbl.find t.watchers f in
  let m = Hashtbl.find t.match_index f in
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
      List.iter
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
  let cfg = b.Common.cfg in
  let buf = Hashtbl.find t.buffers f in
  let outstanding = ref 0 in
  let rec loop () =
    if Common.alive b then begin
      if Queue.is_empty buf.entries || !outstanding >= window_bytes then begin
        (* depfast-lint: allow red-exposure — drain handoff signalled by the
           local buffer producer; idling here is the intended backpressure *)
        Depfast.Condvar.wait b.Common.sched buf.drain_cv;
        loop ()
      end
      else begin
        let batch = ref [] in
        let n = ref 0 in
        while (not (Queue.is_empty buf.entries)) && !n < cfg.Raft.Config.batch_max do
          batch := Queue.pop buf.entries :: !batch;
          incr n
        done;
        let entries = Array.of_list (List.rev !batch) in
        Cluster.Node.cpu_work b.Common.node
          (cfg.Raft.Config.cost_per_follower
          + (Array.length entries * cfg.Raft.Config.cost_send_entry));
        let prev_index = entries.(0).index - 1 in
        let bytes = entries_bytes_a entries in
        outstanding := !outstanding + bytes;
        let call =
          Cluster.Rpc.call b.Common.rpc ~src:b.Common.node ~dst:f
            ~bytes:(256 + bytes)
            (Append_entries
               {
                 term = 1;
                 leader = Cluster.Node.id b.Common.node;
                 prev_index;
                 prev_term = 1;
                 (* baselines ship a copied batch, wrapped as an owned view *)
                 entries = view_of_array entries;
                 commit = b.Common.commit_index;
               })
        in
        Depfast.Event.on_fire (Cluster.Rpc.event call) (fun () ->
            Common.cpu_charge b cfg.Raft.Config.cost_ack_process;
            outstanding := !outstanding - bytes;
            (match Cluster.Rpc.response call with
            | Some (Append_resp { success = true; match_index; _ }) ->
              (* acknowledged: finally release the buffered bytes *)
              buf.bytes <- buf.bytes - bytes;
              Cluster.Memory.free (Cluster.Node.memory b.Common.node) bytes;
              Hashtbl.replace t.match_index f
                (max match_index (Hashtbl.find t.match_index f));
              fire_watchers t f;
              advance_commit t
            | Some _ | None -> ());
            Depfast.Condvar.broadcast buf.drain_cv);
        loop ()
      end
    end
  in
  loop ()

let replicator_loop t =
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
        let last = Raft.Rlog.last_index b.Common.rlog in
        let wal_ev = Common.wal_append b ~bytes:(Common.wal_bytes b entries) in
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
        (match
           Depfast.Sched.wait_timeout b.Common.sched quorum cfg.Raft.Config.rpc_timeout
         with
        | Depfast.Sched.Ready -> advance_commit t
        | Depfast.Sched.Timed_out -> ());
        loop ()
      end
      else loop ()
    end
  in
  loop ()

(* ---------- construction ---------- *)

type cluster = { t : t; bases : Common.base list; rpc : Common.rpc }

let handle b ~src:_ req =
  match req with
  | Client_request { cmd; client_id; seq } ->
    Some (Common.handle_client_request b ~cmd ~client_id ~seq)
  | Append_entries { prev_index; entries; commit; _ } -> (
    match view_materialize entries with
    | None -> None
    | Some entries -> Some (handle_append_entries b ~prev_index ~entries ~commit))
  | Request_vote _ | Pull_oplog _ | Update_position _ | Transfer_leadership _
  | Timeout_now ->
    Some Ack

let create sched ~n ?(cfg = Raft.Config.default) () =
  let resident = 200 * 1024 * 1024 in
  let rpc, nodes =
    Common.make_cluster sched ~n
      ~mem_soft_cap:(resident + soft_headroom)
      ~mem_hard_cap:(resident + hard_headroom) ()
  in
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
      buffers = Hashtbl.create 8;
      match_index = Hashtbl.create 8;
      watchers = Hashtbl.create 8;
    }
  in
  List.iter
    (fun f ->
      Hashtbl.replace t.buffers f
        {
          entries = Queue.create ();
          bytes = 0;
          drain_cv = Depfast.Condvar.create ~label:"drain" ();
        };
      Hashtbl.replace t.match_index f 0;
      Hashtbl.replace t.watchers f (ref []))
    leader_base.Common.peers;
  List.iter
    (fun b ->
      Cluster.Rpc.serve rpc ~node:b.Common.node ~handler:(fun ~src req -> handle b ~src req);
      Common.start_common b)
    bases;
  Cluster.Node.spawn leader_base.Common.node ~name:"replicator" (fun () ->
      replicator_loop t);
  List.iter
    (fun f ->
      Cluster.Node.spawn leader_base.Common.node
        ~name:(Printf.sprintf "drainer.%d" f)
        (fun () -> drainer_loop t f))
    leader_base.Common.peers;
  { t; bases; rpc }

let sut c ~cfg =
  let leader = List.hd c.bases and followers = List.tl c.bases in
  {
    Workload.Sut.name = "RethinkDB-like";
    leader_node = leader.Common.node;
    follower_nodes = List.map (fun b -> b.Common.node) followers;
    make_clients =
      (fun ~count ->
        Common.make_clients c.rpc ~sched:leader.Common.sched
          ~server_ids:(List.map (fun b -> Cluster.Node.id b.Common.node) c.bases)
          ~cfg ~count);
  }

let buffer_bytes c f = (Hashtbl.find c.t.buffers f).bytes
let commit c = (List.hd c.bases).Common.commit_index
