open Sim
open Types
open Replica

type rpc = Replica.rpc
type t = Replica.t

(* the pooled connection path (a direct-indexed slot, no per-request
   closure), replies grouped into one flush per commit batch, zero-copy
   follower appends *)
let depfast =
  {
    cost_parse = Config.cost_client_parse_pooled;
    cost_reply = Config.cost_client_reply_grouped;
    cost_flush = Config.cost_reply_flush;
    cost_follower_entry = Config.cost_follower_entry_view;
  }

let id t = Cluster.Node.id t.node
let node t = t.node
let term t = t.term
let is_leader t = t.role = Leader
let commit_index t = t.commit_index
let log t = t.rlog
let kv t = t.kv
let now t = Depfast.Sched.now t.sched
let alive t = Cluster.Node.alive t.node
let cpu_work t w = Cluster.Node.cpu_work t.node w

(* ---------------- the replica core: what every system shares ----------- *)

let wal_append t ~bytes =
  let disk = Cluster.Node.disk t.node in
  ignore (Cluster.Disk.write disk ~bytes);
  Cluster.Disk.fsync disk

let wal t entries =
  wal_append t ~bytes:(entries_bytes entries + (Array.length entries * Config.wal_entry_overhead))

let persist t entries =
  (* depfast-lint: allow red-exposure — own-WAL durability wait: a node
     persists its own log on its local disk before it acks or forwards *)
  Depfast.Sched.wait t.sched (wal t entries)

(* idempotent append of a received batch, truncating a conflicting suffix *)
let append_entries t entries =
  Array.iter
    (fun e ->
      let tm = Rlog.term_of t.rlog e.index in
      if tm < 0 then begin
        if e.index = Rlog.last_index t.rlog + 1 then Rlog.append t.rlog e
      end
      else if tm <> e.term then begin
        Rlog.truncate_from t.rlog e.index;
        Rlog.append t.rlog e
      end)
    entries

(* a follower's commit advance: up to the leader's commit point, within
   its own log *)
let set_commit t commit =
  let c = min commit (Rlog.last_index t.rlog) in
  if c > t.commit_index then begin
    t.commit_index <- c;
    Depfast.Condvar.broadcast t.commit_cv
  end

(* k-th (0-based) largest by quickselect with a descending Hoare partition:
   O(n) expected, in place, so the per-ack commit rule allocates nothing *)
let rec select_kth (a : int array) lo hi k =
  if lo >= hi then a.(lo)
  else begin
    let pivot = a.((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) > pivot do
        incr i
      done;
      while a.(!j) < pivot do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    if k <= !j then select_kth a lo !j k
    else if k >= !i then select_kth a !i hi k
    else a.(k)
  end

(* the majority rule: the highest index a majority of voters holds, the
   leader's own vote counting up to [own] *)
let quorum_index t ~own =
  let buf = t.match_buf in
  buf.(0) <- own;
  List.iteri (fun i p -> buf.(i + 1) <- (Hashtbl.find t.followers p).match_index) t.peers;
  select_kth buf 0 (t.n_voters - 1) (Config.majority t.n_voters - 1)

let fire_watchers fs =
  let ready, rest = List.partition (fun (idx, _) -> idx <= fs.match_index) fs.watchers in
  fs.watchers <- rest;
  List.iter (fun (_, ev) -> Depfast.Event.fire ev) ready

(* a replication round's §3.1 QuorumEvent: [quorum] waits on the leader's
   own WAL event plus one progress signal per follower, fired once it
   holds [last] *)
let quorum_round t quorum ~wal last =
  Depfast.Event.add quorum ~child:wal;
  (* attach every child before firing any: a fired child can complete the
     quorum, and adding to a fired quorum is an error *)
  List.iter
    (fun p ->
      let fs = Hashtbl.find t.followers p in
      let ack = Depfast.Event.rpc_completion ~label:"repl-progress" ~peer:p () in
      fs.watchers <- (last, ack) :: fs.watchers;
      Depfast.Event.add quorum ~child:ack)
    t.peers;
  List.iter (fun p -> fire_watchers (Hashtbl.find t.followers p)) t.peers

(* a client request, as the leader queues it *)
let pending t ~cmd ~client ~seq =
  {
    p_cmd = { b_cmd = cmd; b_client = client; b_seq = seq };
    p_ok = false;
    p_value = None;
    p_done = Depfast.Event.signal ~label:"committed" ();
    p_t0 = now t;
  }

let enqueue t ~cmd ~client ~seq =
  let p = pending t ~cmd ~client ~seq in
  Queue.add p t.pending_q;
  Depfast.Condvar.broadcast t.work_cv;
  p

(* the leader's group-commit wait: with nothing queued, wait up to one
   commit window for work *)
let await_work t =
  if Queue.is_empty t.pending_q then
    ignore (Depfast.Condvar.wait_timeout t.sched t.work_cv Config.group_commit_window)

(* Seal up to [max] queued commands, oldest first, out of the admission
   queue into one array, registered for the applier's replies at
   [index], the log index of its first command *)
let take_batch t ~max ~index =
  let n = min max (Queue.length t.pending_q) in
  let pendings = Array.init n (fun _ -> Queue.pop t.pending_q) in
  if n > 0 then Hashtbl.replace t.by_index index pendings;
  pendings

let not_leader t = Client_resp { ok = false; shed = false; leader_hint = t.leader; value = None }

(* the client path past admission: wait for the queued request's commit,
   pay its reply and answer; a committed request without a value gets the
   server's shared acknowledgement *)
let await_reply t p =
  let outcome = Depfast.Sched.wait_timeout t.sched p.p_done t.cfg.Config.client_timeout in
  cpu_work t t.profile.cost_reply;
  match outcome with
  | Depfast.Sched.Ready -> (
    match p.p_value with
    | None when p.p_ok -> t.ack
    | value -> Some (Client_resp { ok = p.p_ok; shed = false; leader_hint = t.self_hint; value }))
  | Depfast.Sched.Timed_out -> Some (not_leader t)

let handle_client_request t ~cmd ~client_id ~seq =
  cpu_work t t.profile.cost_parse;
  if t.role <> Leader then Some (not_leader t)
  else if t.cfg.Config.admission_depth <= Queue.length t.pending_q then begin
    (* bounded admission: shed at the door with an explicit fail-fast reply
       instead of joining a backlog that a fail-slow disk would grow without
       bound (the paper's §2 RethinkDB root cause, inverted) *)
    t.shed_count <- t.shed_count + 1;
    cpu_work t t.profile.cost_reply;
    Some (Client_resp { ok = false; shed = true; leader_hint = t.self_hint; value = None })
  end
  else await_reply t (enqueue t ~cmd ~client:client_id ~seq)

(* ---------------- applier ----------------------------------------------- *)

(* each applied command answers the next waiting request of its batch; the
   batch goes with its last answer *)
let reply t value =
  let k = t.next_reply in
  if k < Array.length t.replies then begin
    let p = t.replies.(k) in
    if k + 1 = Array.length t.replies then t.replies <- [||];
    t.next_reply <- k + 1;
    p.p_value <- value;
    p.p_ok <- true;
    let lat = float_of_int (Time.diff (now t) p.p_t0) in
    t.ewma.commit_latency_ewma <-
      (if t.ewma.commit_latency_ewma < 0.0 then lat
       else (0.95 *. t.ewma.commit_latency_ewma) +. (0.05 *. lat));
    Depfast.Event.fire p.p_done
  end

let applier_loop t =
  let rec loop () =
    if alive t then begin
      if t.last_applied < t.commit_index then begin
        let i = t.last_applied + 1 in
        match Rlog.get t.rlog i with
        | None ->
          (* committed entry missing would be a safety bug *)
          assert false
        | Some e ->
          let sealed =
            match Hashtbl.find_opt t.by_index i with
            | Some ps ->
              Hashtbl.remove t.by_index i;
              t.replies <- ps;
              t.next_reply <- 0;
              true
            | None -> false
          in
          cpu_work t Config.cost_apply_entry;
          (match e.cmd with
          | Batch subs ->
            (* batched apply: entry fetch/dispatch once, then the marginal
               per-command update — the session and store tables stay
               cache-warm across the group. Each reply fires as its command
               applies, so the fan-out streams out over the batch's apply
               window instead of bursting after it — the woken client
               handlers overlap with the remaining applies *)
            Array.iter
              (fun b ->
                cpu_work t Config.cost_apply_cmd;
                reply t (Kv.apply_cmd t.kv ~cmd:b.b_cmd ~client_id:b.b_client ~seq:b.b_seq))
              subs
          | _ -> reply t (Kv.apply t.kv e));
          (* grouped reply fan-out: one vectored flush pushes the whole
             batch's replies out, where the system groups them *)
          if sealed && t.profile.cost_flush > 0 then cpu_work t t.profile.cost_flush;
          t.last_applied <- i;
          loop ()
      end
      else begin
        (* depfast-lint: allow red-exposure — applier handoff signalled by
           the local commit path; no remote peer can stall this condvar *)
        Depfast.Condvar.wait t.sched t.commit_cv;
        loop ()
      end
    end
  in
  loop ()

let hiccup_loop node rng =
  let sched = Cluster.Node.sched node in
  let cpu = Cluster.Node.cpu node in
  let rec loop () =
    if Cluster.Node.alive node then begin
      Depfast.Sched.sleep sched (Dist.sample_span rng Config.hiccup_interval);
      let duration = min (Time.ms 10) (Dist.sample_span rng Config.hiccup_duration) in
      Cluster.Station.set_speed cpu (Cluster.Station.speed cpu *. Config.hiccup_factor);
      Depfast.Sched.sleep sched duration;
      Cluster.Station.set_speed cpu (Cluster.Station.speed cpu /. Config.hiccup_factor);
      loop ()
    end
  in
  loop ()

(* ---------------- DepFastRaft: terms and the commit rule ---------------- *)

let election_timeout t =
  Rng.int_in t.rng t.cfg.Config.election_timeout_min t.cfg.Config.election_timeout_max

let fail_pending t =
  Queue.iter
    (fun p ->
      p.p_ok <- false;
      Depfast.Event.fire p.p_done)
    t.pending_q;
  Queue.clear t.pending_q;
  Hashtbl.iter
    (fun _ ps ->
      Array.iter
        (fun p ->
          p.p_ok <- false;
          Depfast.Event.fire p.p_done)
        ps)
    t.by_index;
  Hashtbl.reset t.by_index

let step_down t new_term ~leader =
  let was_leader = t.role = Leader in
  if new_term > t.term then begin
    t.term <- new_term;
    t.voted_for <- None
  end;
  if t.role <> Follower then t.epoch <- t.epoch + 1;
  t.role <- Follower;
  (match leader with Some _ -> t.leader <- leader | None -> ());
  if was_leader then fail_pending t

(* commit rule: the majority-replicated index, restricted to entries of the
   current term (Raft §5.4.2) *)
let advance_commit t =
  if t.role = Leader then begin
    (* the leader's own vote counts only up to its durable WAL index *)
    let candidate = quorum_index t ~own:t.wal_done_index in
    let rec settle n =
      if n > t.commit_index then
        if Rlog.term_of t.rlog n = t.term then begin
          t.commit_index <- n;
          Depfast.Condvar.broadcast t.commit_cv
        end
        else settle (n - 1)
    in
    settle candidate
  end

(* ---------------- response processing (framework callbacks) ------------- *)

let handle_append_resp t fs call =
  fs.last_ack <- now t;
  (* pooled path: the ack resolves through a direct-indexed slot, not a
     per-call closure + hashtable lookup *)
  Cluster.Node.cpu_charge t.node Config.cost_ack_indexed;
  (match Cluster.Rpc.response call with
  | Some (Append_resp { term; success; match_index }) ->
    if term > t.term then step_down t term ~leader:None
    else if t.role = Leader && term = t.term then begin
      if success then begin
        if match_index > fs.match_index then fs.match_index <- match_index;
        fs.next_index <- fs.match_index + 1;
        if fs.sent_index < fs.match_index then fs.sent_index <- fs.match_index;
        fire_watchers fs;
        advance_commit t
      end
      else begin
        (* consistency miss: rewind to the follower's last-index hint and
           restream from there *)
        fs.next_index <- max 1 (min (fs.next_index - 1) (match_index + 1));
        fs.sent_index <- fs.next_index - 1
      end
    end
  | Some _ | None -> ());
  Depfast.Condvar.broadcast fs.progress_cv

(* ---------------- leader: per-follower sender coroutine ----------------- *)

(* Pipelined streaming: the sender ships batches as the log grows, without
   waiting for each ack, up to [Config.pipeline_depth] un-acknowledged
   AppendEntries per follower. The leader therefore pays the same send cost
   for a fail-slow follower as for a healthy one — it is the *wait* that is
   quorum-based, not the sending. Each batch is a zero-copy {!Rlog.view}
   into the log: handing it to the NIC is O(1) in the batch size (no
   per-entry copy), and the follower materializes on receipt. Requests
   unanswered after an RPC timeout are abandoned (their buffers released —
   the framework-level discard of §2.3). *)
let send_append t fs =
  let from = fs.sent_index + 1 in
  let batch = Rlog.view t.rlog ~from ~max:Config.batch_max in
  let n = Rlog.View.length batch in
  let prev_index = from - 1 in
  let prev_term = Int.max 0 (Rlog.term_of t.rlog prev_index) in
  let bytes = 256 + Rlog.View.bytes batch in
  (* ship cost is per batch, not per entry — the zero-copy win *)
  if n > 0 then cpu_work t Config.cost_ship_view;
  fs.sent_index <- prev_index + n;
  fs.last_send <- now t;
  fs.inflight <- fs.inflight + 1;
  let call =
    Cluster.Rpc.call t.rpc ~src:t.node ~dst:fs.f_id ~bytes
      (Append_entries
         {
           term = t.term;
           leader = id t;
           prev_index;
           prev_term;
           entries = batch;
           commit = t.commit_index;
         })
  in
  (* a call settles once: its event's fire and its abandon exclude each
     other, so each observer frees the window slot itself *)
  let ev = Cluster.Rpc.event call in
  Depfast.Event.on_fire ev (fun () ->
      fs.inflight <- fs.inflight - 1;
      handle_append_resp t fs call);
  Depfast.Event.on_abandon ev (fun () -> fs.inflight <- fs.inflight - 1);
  (* bound the wait for this response; late replies are discarded. The
     timer holds the call's id, not the call, so an answered call's event
     and entries are garbage before the timer comes due *)
  let rpc = t.rpc and id = Cluster.Rpc.id call in
  ignore
    (Engine.schedule (Depfast.Sched.engine t.sched) ~delay:t.cfg.Config.rpc_timeout
       (fun () -> Cluster.Rpc.abandon_id rpc id))

let sender_loop t fs epoch =
  let cfg = t.cfg in
  let rec loop () =
    if alive t && t.role = Leader && t.epoch = epoch then begin
      let stalled =
        (* no ack for a full timeout with data outstanding: the follower is
           unreachable or drowning — retry at heartbeat pace, resending
           from the last acknowledged point *)
        fs.sent_index > fs.match_index
        && Time.diff (now t) fs.last_ack >= cfg.Config.rpc_timeout
      in
      if stalled then begin
        (* window rewind under silence: restream from the last ack *)
        fs.sent_index <- fs.match_index;
        if Time.diff (now t) fs.last_send >= cfg.Config.heartbeat_interval then
          send_append t fs;
        ignore
          (Depfast.Condvar.wait_timeout t.sched fs.progress_cv
             cfg.Config.heartbeat_interval);
        loop ()
      end
      else if fs.inflight >= Config.pipeline_depth then begin
        (* flow control: window full, wait for an ack to free a slot *)
        ignore
          (Depfast.Condvar.wait_timeout t.sched fs.progress_cv cfg.Config.rpc_timeout);
        loop ()
      end
      else if fs.sent_index < Rlog.last_index t.rlog then begin
        send_append t fs;
        loop ()
      end
      else if Time.diff (now t) fs.last_send >= cfg.Config.heartbeat_interval then begin
        send_append t fs;
        loop ()
      end
      else begin
        ignore
          (Depfast.Condvar.wait_timeout t.sched t.work_cv
             cfg.Config.heartbeat_interval);
        loop ()
      end
    end
  in
  loop ()

(* ---------------- leader: adaptive batcher + group-commit replicator ---- *)

let replicator_loop t epoch =
  let cfg = t.cfg in
  (* hard bound on concurrently outstanding commit rounds (quorum waits);
     the per-follower wire window is Config.pipeline_depth in the senders *)
  let rounds_window = 8 in
  let rec loop () =
    if alive t && t.role = Leader && t.epoch = epoch then begin
      await_work t;
      if alive t && t.role = Leader && t.epoch = epoch then begin
        (* Adaptive group commit, no timer in the hot path: one batch forms
           while at most one earlier commit cycle is still in flight (double
           buffering), so the flush trigger is the previous cycle's
           completion — a cycle spans append/replicate/fsync *and* the
           apply + reply fan-out (see the round coroutine below). The batch
           interval therefore stretches exactly as far as the whole
           commit pipeline does, which is what keeps batches growing (and
           per-op cost shrinking) precisely when the disk or a follower
           turns slow. A *full* batch may pipeline deeper, up to
           [rounds_window]. *)
        let qlen = Queue.length t.pending_q in
        let flush_now =
          qlen > 0
          && (t.rounds_inflight < 2
             || (qlen >= cfg.Config.max_batch && t.rounds_inflight < rounds_window))
        in
        if not flush_now then begin
          if qlen > 0 || t.rounds_inflight >= rounds_window then
            (* wait for the round ahead to complete, not for a timer *)
            ignore
              (Depfast.Condvar.wait_timeout t.sched t.round_cv cfg.Config.rpc_timeout);
          loop ()
        end
        else begin
          (* pay the per-round fixed cost before draining: commands arriving
             while this round's fixed work runs still make this batch, so
             the batch interval covers the whole seal, not just the wait *)
          cpu_work t Config.cost_round_fixed;
          let index = Rlog.last_index t.rlog + 1 in
          let pendings = take_batch t ~max:cfg.Config.max_batch ~index in
          let n = Array.length pendings in
          if n = 0 then loop ()
          else begin
            let e =
              if n = 1 then
                (* singleton: a plain entry, bit-identical to the unbatched
                   protocol *)
                let b = pendings.(0).p_cmd in
                { term = t.term; index; cmd = b.b_cmd; client_id = b.b_client; seq = b.b_seq }
              else
                {
                  term = t.term;
                  index;
                  cmd = Batch (Array.map (fun p -> p.p_cmd) pendings);
                  client_id = -1;
                  seq = 0;
                }
            in
            (* depfast-lint: allow unbounded-growth — known-unbounded
               log: leader appends are never compacted (ROADMAP: log
               compaction / snapshots) *)
            Rlog.append t.rlog e;
            Hist.add t.batch_hist n;
            (* zero-copy path: the round's remaining serial work is the WAL
               encode only — no wire-buffer marshal (the senders ship
               views); the fixed cost was paid above, once per batch *)
            cpu_work t (n * Config.cost_wal_entry);
            let last = index in
            let wal_ev = wal_append t ~bytes:(entry_bytes e + Config.wal_entry_overhead) in
            (* disk completions are FIFO, so WAL durability advances in
               log order *)
            Depfast.Event.on_fire wal_ev (fun () ->
                if last > t.wal_done_index then t.wal_done_index <- last;
                if t.role = Leader && t.epoch = epoch then advance_commit t);
            (* local durability + follower progress, majority arity — no
               single replica can stall this wait *)
            let required =
              match cfg.Config.replication_arity with
              | `Majority -> Config.majority t.n_voters
              | `All -> t.n_voters
            in
            let quorum =
              Depfast.Event.quorum ~label:"replicate" (Depfast.Event.Count required)
            in
            quorum_round t quorum ~wal:wal_ev last;
            Depfast.Condvar.broadcast t.work_cv;
            (* pipelining: a dedicated coroutine waits for this round's
               quorum while the replicator assembles the next one *)
            t.rounds_inflight <- t.rounds_inflight + 1;
            Depfast.Sched.spawn_here t.sched ~name:"raft.round" (fun () ->
                (match
                   Depfast.Sched.wait_timeout t.sched quorum cfg.Config.rpc_timeout
                 with
                | Depfast.Sched.Ready ->
                  if t.role = Leader && t.epoch = epoch then begin
                    advance_commit t;
                    (* self-clock the next non-full flush on the whole
                       group-commit cycle: hold this round open until the
                       batch's replies have flushed (or failed over), not
                       merely until it replicated — the batch interval then
                       tracks replicate + apply + reply, which is what
                       actually bounds how fast commands leave the system *)
                    ignore
                      (Depfast.Sched.wait_timeout t.sched
                         pendings.(Array.length pendings - 1).p_done
                         cfg.Config.rpc_timeout)
                  end
                | Depfast.Sched.Timed_out -> ());
                t.rounds_inflight <- t.rounds_inflight - 1;
                Depfast.Condvar.broadcast t.round_cv);
            loop ()
          end
        end
      end
    end
  in
  loop ()

(* ---------------- elections --------------------------------------------- *)

let reset_follower_state t =
  Hashtbl.reset t.followers;
  List.iter
    (fun p ->
      Hashtbl.replace t.followers p
        {
          f_id = p;
          next_index = Rlog.last_index t.rlog + 1;
          match_index = 0;
          sent_index = Rlog.last_index t.rlog;
          inflight = 0;
          last_send = Time.zero;
          last_ack = now t;
          progress_cv = Depfast.Condvar.create ~label:"progress" ();
          watchers = [];
        })
    t.peers

let become_leader t =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  t.role <- Leader;
  t.leader <- t.self_hint;
  t.wal_done_index <- 0;
  t.rounds_inflight <- 0;
  reset_follower_state t;
  (* commit barrier: a fresh leader commits a no-op to learn commit index *)
  ignore (enqueue t ~cmd:Nop ~client:(-1) ~seq:0);
  Cluster.Node.spawn t.node ~name:"raft.replicator" (fun () -> replicator_loop t epoch);
  List.iter2
    (fun p name ->
      let fs = Hashtbl.find t.followers p in
      Cluster.Node.spawn t.node ~name (fun () -> sender_loop t fs epoch))
    t.peers t.sender_names

(* ask peers whether they would vote for us at [term]; used for both the
   Pre-Vote probe and the real election *)
let gather_votes t ~term:ask_term ~transfer ~prevote ~needed =
  let quorum =
    Depfast.Event.quorum
      ~label:(if prevote then "prevotes" else "votes")
      (Depfast.Event.Count needed)
  in
  let grants =
    List.map
      (fun p ->
        let g =
          Depfast.Event.rpc_completion
            ~label:(if prevote then "prevote-granted" else "vote-granted")
            ~peer:p ()
        in
        Depfast.Event.add quorum ~child:g;
        (p, g))
      t.peers
  in
  List.iter
    (fun (p, grant) ->
      let call =
        Cluster.Rpc.call t.rpc ~src:t.node ~dst:p
          (Request_vote
             {
               term = ask_term;
               candidate = id t;
               last_log_index = Rlog.last_index t.rlog;
               last_log_term = Rlog.last_term t.rlog;
               transfer;
               prevote;
             })
      in
      Depfast.Event.on_fire (Cluster.Rpc.event call) (fun () ->
          Cluster.Node.cpu_charge t.node Config.cost_ack_process;
          match Cluster.Rpc.response call with
          | Some (Vote_resp { term; granted }) ->
            if term > t.term then step_down t term ~leader:None
            else if granted then Depfast.Event.fire grant
          | Some _ | None -> ()))
    grants;
  quorum

let run_election t ~transfer =
  t.epoch <- t.epoch + 1;
  t.role <- Candidate;
  t.term <- t.term + 1;
  t.voted_for <- Some (id t);
  t.leader <- None;
  t.last_contact <- now t;
  let my_term = t.term in
  let needed = Config.majority t.n_voters - 1 in
  if needed = 0 then become_leader t
  else begin
    let quorum = gather_votes t ~term:my_term ~transfer ~prevote:false ~needed in
    match Depfast.Sched.wait_timeout t.sched quorum (election_timeout t) with
    | Depfast.Sched.Ready ->
      if t.role = Candidate && t.term = my_term then become_leader t
    | Depfast.Sched.Timed_out -> ()
  end

(* Pre-Vote (Raft thesis §9.6): probe a majority before disturbing anyone.
   Without it, a follower whose inbound link is slow (the 400 ms tc fault)
   times out, inflates its term, and deposes a healthy leader — precisely
   the kind of fail-slow propagation this system must not have. *)
let run_prevote_then_election t ~transfer =
  if transfer then run_election t ~transfer
  else begin
    let needed = Config.majority t.n_voters - 1 in
    if needed = 0 then run_election t ~transfer
    else begin
      let quorum =
        gather_votes t ~term:(t.term + 1) ~transfer ~prevote:true ~needed
      in
      match Depfast.Sched.wait_timeout t.sched quorum (election_timeout t) with
      | Depfast.Sched.Ready -> if t.role <> Leader then run_election t ~transfer
      | Depfast.Sched.Timed_out -> ()
    end
  end

let election_timer_loop t =
  let rec loop () =
    if alive t then begin
      if t.role = Leader then begin
        Depfast.Sched.sleep t.sched t.cfg.Config.heartbeat_interval;
        loop ()
      end
      else begin
        let timeout = election_timeout t in
        let elapsed = Time.diff (now t) t.last_contact in
        if elapsed >= timeout then begin
          run_prevote_then_election t ~transfer:false;
          loop ()
        end
        else begin
          Depfast.Sched.sleep t.sched (timeout - elapsed);
          loop ()
        end
      end
    end
  in
  loop ()

(* ---------------- request handlers -------------------------------------- *)

let handle_request_vote t ~term ~candidate ~last_log_index ~last_log_term ~transfer
    ~prevote =
  cpu_work t Config.cost_vote;
  (* leader stickiness: if we heard from a live leader recently, reject —
     unless this is a deliberate leadership transfer *)
  let sticky =
    (not transfer)
    && Time.diff (now t) t.last_contact < t.cfg.Config.election_timeout_min
  in
  let up_to_date =
    last_log_term > Rlog.last_term t.rlog
    || (last_log_term = Rlog.last_term t.rlog && last_log_index >= Rlog.last_index t.rlog)
  in
  if prevote then
    (* advisory only: no state changes, no term adoption *)
    Vote_resp
      { term = t.term; granted = term >= t.term && up_to_date && not sticky }
  else if term < t.term || sticky then Vote_resp { term = t.term; granted = false }
  else begin
    if term > t.term then step_down t term ~leader:None;
    let granted =
      (match t.voted_for with None -> true | Some v -> v = candidate) && up_to_date
    in
    if granted then begin
      t.voted_for <- Some candidate;
      t.last_contact <- now t
    end;
    Vote_resp { term = t.term; granted }
  end

(* [entries] here is already materialized from the shipped view — see the
   dispatch in [handle] *)
let handle_append_entries t ~term ~leader ~prev_index ~prev_term ~entries ~commit =
  (* the replication stream is processed serially, in delivery order (a
     retransmitted message must not race its successor) *)
  Depfast.Mutex.with_lock t.sched t.append_mu @@ fun () ->
  (* depfast-lint: allow lock-across-call — serial by design: the FIFO
     append lock admits entries in delivery order, and the modeled CPU
     cost of processing one message is part of that critical section *)
  cpu_work t
    (Config.cost_follower_fixed + (Array.length entries * t.profile.cost_follower_entry));
  if term < t.term then Append_resp { term = t.term; success = false; match_index = 0 }
  else begin
    if term > t.term || t.role <> Follower then step_down t term ~leader:(Some leader);
    (match t.leader with Some l when l = leader -> () | _ -> t.leader <- Some leader);
    t.last_contact <- now t;
    if not (Rlog.matches t.rlog ~prev_index ~prev_term) then
      (* hint our last index so the leader can back off quickly *)
      Append_resp
        { term = t.term; success = false; match_index = Rlog.last_index t.rlog }
    else begin
      append_entries t entries;
      let match_index = prev_index + Array.length entries in
      if Array.length entries > 0 then
        (* depfast-lint: allow lock-across-call — the append lock is the
           documented FIFO-stream substitution (DESIGN §5): appends
           serialise, and the wait is on the node's own WAL *)
        persist t entries;
      set_commit t commit;
      t.last_contact <- now t;
      Append_resp { term = t.term; success = true; match_index }
    end
  end

let transfer_leadership t ~target =
  if t.role = Leader && List.mem target t.peers then begin
    let fs = Hashtbl.find t.followers target in
    (* wait (bounded) for the target to catch up, then fire Timeout_now *)
    let deadline = Time.add (now t) t.cfg.Config.election_timeout_max in
    let rec wait_caught_up () =
      if
        t.role = Leader
        && fs.match_index < Rlog.last_index t.rlog
        && now t < deadline
      then begin
        ignore (Depfast.Condvar.wait_timeout t.sched fs.progress_cv (Time.ms 10));
        wait_caught_up ()
      end
    in
    wait_caught_up ();
    if t.role = Leader then begin
      ignore (Cluster.Rpc.call t.rpc ~src:t.node ~dst:target Timeout_now);
      (* step down proactively; the target's election will supersede us *)
      step_down t t.term ~leader:None
    end
  end

let handle t (req : Types.req) : Types.resp option =
  match req with
  | Request_vote { term; candidate; last_log_index; last_log_term; transfer; prevote }
    ->
    Some
      (handle_request_vote t ~term ~candidate ~last_log_index ~last_log_term ~transfer
         ~prevote)
  | Append_entries { term; leader; prev_index; prev_term; entries; commit } -> (
    (* materialize the shipped view — the one copy on the replication path,
       paid by the receiver. A stale view means the sender truncated after
       shipping (a deposed leader): the wire copy never happened, so the
       message is simply lost — no response, always safe for Raft *)
    match Types.view_materialize entries with
    | None -> None
    | Some entries ->
      Some (handle_append_entries t ~term ~leader ~prev_index ~prev_term ~entries ~commit))
  | Client_request { cmd; client_id; seq } -> handle_client_request t ~cmd ~client_id ~seq
  | Transfer_leadership { target } ->
    transfer_leadership t ~target;
    Some Ack
  | Timeout_now ->
    if t.role <> Leader then run_election t ~transfer:true;
    Some Ack
  | Pull_oplog _ | Update_position _ ->
    (* pull-replication messages; a pushing system ignores them *)
    Some Ack

let serve t = Cluster.Rpc.serve t.rpc ~node:t.node ~handler:(fun ~src:_ req -> handle t req)

(* a follower at term 0 with an empty log and store, its stream re-split
   from the engine's root: [create]'s state, for a world reused across
   runs once its engine, nodes and network are reset. The served handler
   stays; [start] respawns the coroutines *)
let reset t =
  Rng.split_into (Engine.rng (Depfast.Sched.engine t.sched)) ~into:t.rng;
  t.role <- Follower;
  t.term <- 0;
  t.voted_for <- None;
  Rlog.reset t.rlog;
  t.commit_index <- 0;
  t.last_applied <- 0;
  Kv.reset t.kv;
  t.last_contact <- Time.zero;
  t.leader <- None;
  Queue.clear t.pending_q;
  Hashtbl.reset t.by_index;
  t.replies <- [||];
  t.next_reply <- 0;
  Depfast.Condvar.reset t.work_cv;
  Depfast.Condvar.reset t.commit_cv;
  t.epoch <- 0;
  t.ewma.commit_latency_ewma <- -1.0;
  t.wal_done_index <- 0;
  t.rounds_inflight <- 0;
  Depfast.Condvar.reset t.round_cv;
  Depfast.Mutex.reset t.append_mu;
  Array.fill t.match_buf 0 t.n_voters 0;
  Hist.clear t.batch_hist;
  t.shed_count <- 0;
  reset_follower_state t

let create ?profile ?leader rpc node ~peers ~cfg =
  let sched = Cluster.Node.sched node in
  let self_hint = Some (Cluster.Node.id node) in
  let t =
    {
      rpc;
      node;
      sched;
      cfg;
      profile = Option.value profile ~default:depfast;
      peers;
      sender_names = List.map (Printf.sprintf "raft.sender.%d") peers;
      n_voters = List.length peers + 1;
      rng = Rng.create 0L;
      role = Follower;
      term = 0;
      voted_for = None;
      rlog = Rlog.create ();
      commit_index = 0;
      last_applied = 0;
      kv = Kv.create ();
      last_contact = Time.zero;
      leader = None;
      self_hint;
      ack = Some (Client_resp { ok = true; shed = false; leader_hint = self_hint; value = None });
      pending_q = Queue.create ();
      by_index = Hashtbl.create 16;
      replies = [||];
      next_reply = 0;
      followers = Hashtbl.create 8;
      work_cv = Depfast.Condvar.create ~label:"work" ();
      commit_cv = Depfast.Condvar.create ~label:"commit" ();
      epoch = 0;
      ewma = { commit_latency_ewma = -1.0 };
      wal_done_index = 0;
      rounds_inflight = 0;
      round_cv = Depfast.Condvar.create ~label:"rounds" ();
      append_mu = Depfast.Mutex.create ~label:"append" ();
      match_buf = Array.make (List.length peers + 1) 0;
      batch_hist = Hist.create ();
      shed_count = 0;
    }
  in
  reset t;
  (* a fixed leader leads term 1 for good; every node knows it *)
  (match leader with
  | Some l ->
    t.term <- 1;
    t.leader <- (if l = id t then t.self_hint else Some l);
    if l = id t then t.role <- Leader
  | None -> ());
  t

let run t =
  Cluster.Node.spawn t.node ~name:"raft.applier" (fun () -> applier_loop t);
  if t.cfg.Config.enable_hiccups then
    Cluster.Node.spawn t.node ~name:"hiccup" (fun () -> hiccup_loop t.node t.rng)

let start t =
  Cluster.Node.spawn t.node ~name:"raft.election-timer" (fun () -> election_timer_loop t);
  run t

let become_leader_now t = if t.role <> Leader then run_election t ~transfer:true

let commit_latency_ewma t = t.ewma.commit_latency_ewma

(* load gauges — the admission queue's live depth (the check scenarios
   register this with the sanitizer against Config.admission_depth), the
   commit-batch-size distribution, and the shed counter *)
let pending_depth t = Queue.length t.pending_q
let batch_hist t = t.batch_hist
let shed_count t = t.shed_count

let best_follower t =
  if t.role <> Leader then None
  else
    Hashtbl.fold
      (fun p fs best ->
        match best with
        | Some (_, m) when m >= fs.match_index -> best
        | _ -> Some (p, fs.match_index))
      t.followers None
    |> Option.map fst
