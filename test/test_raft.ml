(* Integration and safety tests for DepFastRaft. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_env ?(seed = 1L) () =
  let engine = Sim.Engine.create ~seed () in
  let trace = Depfast.Trace.create () in
  Depfast.Sched.create ~trace engine

(* run [body] as a coroutine and drive the simulation; servers run
   perpetual loops (timers, heartbeats), so bound virtual time *)
let in_coroutine ?(until = Sim.Time.sec 60) sched body =
  let finished = ref false in
  Depfast.Sched.spawn sched ~name:"test-driver" (fun () ->
      body ();
      finished := true);
  Depfast.Sched.run ~until sched;
  check_bool "driver finished" true !finished

(* [Group.reset] is [Group.create] again: after a run that elected a
   leader and committed writes, a reset group (its engine and scheduler
   reset first) reads as a freshly built one, and a second run on it
   ends as a first run on a fresh group does *)
let group_snapshot (g : Raft.Group.t) =
  let station st = (Cluster.Station.queue_length st, Cluster.Station.busy_servers st) in
  let node n =
    ( Cluster.Node.alive n,
      Cluster.Memory.used (Cluster.Node.memory n),
      station (Cluster.Node.cpu n),
      station (Cluster.Disk.station (Cluster.Node.disk n)),
      Cluster.Disk.write_count (Cluster.Node.disk n) )
  in
  let totals = Cluster.Rpc.net_totals g.rpc in
  ( List.map
      (fun s ->
        ( Raft.Server.term s,
          Raft.Server.is_leader s,
          Raft.Server.commit_index s,
          Raft.Rlog.last_index (Raft.Server.log s),
          Raft.Server.pending_depth s,
          Raft.Kv.size (Raft.Server.kv s) ))
      g.servers,
    List.map node (g.nodes @ List.map Raft.Client.node g.clients),
    (totals.Cluster.Net.delivered, totals.Cluster.Net.dropped, totals.Cluster.Net.units),
    Cluster.Rpc.discarded_responses g.rpc )

let group_world seed =
  let sched = make_env ~seed () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:2 () in
  (sched, g, clients)

let group_run sched g clients =
  List.iteri
    (fun i c ->
      Cluster.Node.spawn (Raft.Client.node c) (fun () ->
          ignore (Raft.Group.wait_for_leader g);
          for k = 1 to 3 do
            ignore (Raft.Client.put c ~key:(Printf.sprintf "c%d-k%d" i k) ~value:"v")
          done))
    clients;
  Depfast.Sched.run ~until:(Sim.Time.sec 2) sched;
  group_snapshot g

let test_group_reset_equals_fresh () =
  let sched, g, clients = group_world 7L in
  let _, fresh, _ = group_world 7L in
  let first = group_run sched g clients in
  check_bool "the first run elected a leader" true (List.exists Raft.Server.is_leader g.servers);
  check_bool "and committed" true
    (List.for_all (fun s -> Raft.Kv.size (Raft.Server.kv s) = 6) g.servers);
  Sim.Engine.reset (Depfast.Sched.engine sched);
  Depfast.Sched.reset sched;
  Raft.Group.reset g;
  check_bool "reset reads as created" true (group_snapshot g = group_snapshot fresh);
  check_bool "a second run ends as the first" true (group_run sched g clients = first)

let test_election_on_boot () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  in_coroutine sched (fun () ->
      match Raft.Group.wait_for_leader g with
      | None -> Alcotest.fail "no leader elected"
      | Some leader ->
        check_bool "leader role" true (Raft.Server.is_leader leader);
        (* exactly one leader in that term *)
        let leaders = List.filter Raft.Server.is_leader g.servers in
        check_int "one leader" 1 (List.length leaders))

let test_put_get_roundtrip () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:1 () in
  let client = List.hd clients in
  in_coroutine sched (fun () ->
      ignore (Raft.Group.wait_for_leader g);
      check_bool "put ok" true (Raft.Client.put client ~key:"k1" ~value:"v1");
      check_bool "put ok2" true (Raft.Client.put client ~key:"k2" ~value:"v2");
      (match Raft.Client.get client ~key:"k1" with
      | Some (Some v) -> Alcotest.(check string) "get k1" "v1" v
      | _ -> Alcotest.fail "get k1 failed");
      match Raft.Client.get client ~key:"missing" with
      | Some None -> ()
      | _ -> Alcotest.fail "expected committed read of absent key")

let test_replicas_converge () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:4 () in
  in_coroutine sched (fun () ->
      ignore (Raft.Group.wait_for_leader g);
      List.iteri
        (fun ci c ->
          Depfast.Sched.spawn_here sched (fun () ->
              for i = 1 to 20 do
                ignore
                  (Raft.Client.put c
                     ~key:(Printf.sprintf "key%d" ((ci * 20) + i))
                     ~value:(string_of_int i))
              done))
        clients;
      (* let the writes and replication settle *)
      Depfast.Sched.sleep sched (Sim.Time.sec 3);
      let digests =
        List.map (fun s -> Raft.Kv.digest (Raft.Server.kv s)) g.servers
      in
      (match digests with
      | d :: rest -> List.iter (fun d' -> check_int "replica digest" d d') rest
      | [] -> assert false);
      let sizes = List.map (fun s -> Raft.Kv.size (Raft.Server.kv s)) g.servers in
      check_int "all 80 keys" 80 (List.hd sizes))

let test_exactly_once_dedup () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:1 () in
  let client = List.hd clients in
  in_coroutine sched (fun () ->
      ignore (Raft.Group.wait_for_leader g);
      for i = 1 to 10 do
        ignore (Raft.Client.put client ~key:"ctr" ~value:(string_of_int i))
      done;
      Depfast.Sched.sleep sched (Sim.Time.sec 1);
      (* each op applied exactly once on every replica (Nops don't count) *)
      List.iter
        (fun s ->
          check_int
            (Printf.sprintf "applied on s%d" (Raft.Server.id s))
            10
            (Raft.Kv.applied_count (Raft.Server.kv s)))
        g.servers)

let test_follower_crash_tolerated () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:1 () in
  let client = List.hd clients in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      let follower =
        List.find (fun s -> not (Raft.Server.is_leader s)) g.servers
      in
      check_bool "put before crash" true (Raft.Client.put client ~key:"a" ~value:"1");
      Cluster.Node.crash (Raft.Server.node follower);
      check_bool "put after follower crash" true
        (Raft.Client.put client ~key:"b" ~value:"2");
      check_bool "leader unchanged" true (Raft.Server.is_leader leader))

let test_leader_crash_reelection () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:1 () in
  let client = List.hd clients in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      check_bool "put before crash" true (Raft.Client.put client ~key:"a" ~value:"1");
      let old_term = Raft.Server.term leader in
      Cluster.Node.crash (Raft.Server.node leader);
      Depfast.Sched.sleep sched (Sim.Time.sec 2);
      (match
         List.find_opt
           (fun s -> Raft.Server.is_leader s && Cluster.Node.alive (Raft.Server.node s))
           g.servers
       with
      | None -> Alcotest.fail "no new leader"
      | Some nl -> check_bool "term advanced" true (Raft.Server.term nl > old_term));
      check_bool "put after re-election" true
        (Raft.Client.put client ~key:"b" ~value:"2"))

let test_partition_minority_blocks () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      let lid = Raft.Server.id leader in
      let others = List.filter (fun s -> Raft.Server.id s <> lid) g.servers in
      (* isolate the leader from both followers *)
      List.iter (fun s -> Cluster.Rpc.partition g.rpc lid (Raft.Server.id s)) others;
      Depfast.Sched.sleep sched (Sim.Time.sec 2);
      (* majority side elected a new leader *)
      let new_leader =
        List.find_opt (fun s -> Raft.Server.is_leader s) others
      in
      check_bool "majority side has leader" true (new_leader <> None);
      (* heal; old leader must step down *)
      List.iter (fun s -> Cluster.Rpc.heal g.rpc lid (Raft.Server.id s)) others;
      Depfast.Sched.sleep sched (Sim.Time.sec 1);
      let leaders_alive = List.filter Raft.Server.is_leader g.servers in
      check_int "single leader after heal" 1 (List.length leaders_alive))

let test_leadership_transfer () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:1 () in
  let client = List.hd clients in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      ignore (Raft.Client.put client ~key:"x" ~value:"1");
      let target =
        List.find (fun s -> not (Raft.Server.is_leader s)) g.servers
      in
      Raft.Server.transfer_leadership leader ~target:(Raft.Server.id target);
      Depfast.Sched.sleep sched (Sim.Time.sec 1);
      check_bool "target took over" true (Raft.Server.is_leader target);
      check_bool "old leader stepped down" false (Raft.Server.is_leader leader);
      check_bool "writes still work" true (Raft.Client.put client ~key:"y" ~value:"2"))

(* ------------------------------------------------------------------ *)
(* Zero-copy log views *)

let mk_entry i : Raft.Types.entry =
  { term = 1; index = i; cmd = Raft.Types.Nop; client_id = -1; seq = 0 }

let test_rlog_view_generation () =
  let log = Raft.Rlog.create ~capacity:8 () in
  for i = 1 to 6 do
    Raft.Rlog.append log (mk_entry i)
  done;
  let v = Raft.Rlog.view log ~from:2 ~max:3 in
  check_int "view length" 3 (Raft.Rlog.View.length v);
  check_bool "valid when cut" true (Raft.Rlog.View.valid v);
  check_bool "bytes positive" true (Raft.Rlog.View.bytes v > 0);
  (* growing the backing store does NOT invalidate: the view keeps reading
     the store it was cut from, whose prefix is unchanged *)
  for i = 7 to 20 do
    Raft.Rlog.append log (mk_entry i)
  done;
  check_bool "valid after growth" true (Raft.Rlog.View.valid v);
  (match Raft.Types.view_materialize v with
  | Some a ->
    check_int "materialized length" 3 (Array.length a);
    check_int "first index" 2 a.(0).Raft.Types.index
  | None -> Alcotest.fail "view unexpectedly stale");
  (* any truncation bumps the generation and invalidates every outstanding
     view, even one whose window the truncation did not touch: the slots it
     references may be blanked or re-appended over *)
  let gen0 = Raft.Rlog.generation log in
  Raft.Rlog.truncate_from log 10;
  check_bool "generation bumped" true (Raft.Rlog.generation log > gen0);
  check_bool "stale after truncate" false (Raft.Rlog.View.valid v);
  check_bool "materialize refuses" true (Raft.Types.view_materialize v = None);
  (match Raft.Rlog.View.bytes v with
  | exception Raft.Rlog.View.Stale -> ()
  | _ -> Alcotest.fail "View.bytes must raise Stale");
  (* a view cut after the truncation is valid again *)
  let v2 = Raft.Rlog.view log ~from:1 ~max:100 in
  check_bool "fresh view valid" true (Raft.Rlog.View.valid v2);
  check_int "fresh view length" 9 (Raft.Rlog.View.length v2)

(* divergent uncommitted suffix: the deposed leader's log must be rewound
   and overwritten once the new leader's sender gets its consistency
   rejects — the pipeline window rewind path *)
let test_pipeline_rewind_after_reject () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:2 () in
  let c1 = List.hd clients and c2 = List.nth clients 1 in
  in_coroutine sched (fun () ->
      let old_leader = Option.get (Raft.Group.wait_for_leader g) in
      let lid = Raft.Server.id old_leader in
      check_bool "initial put" true (Raft.Client.put c1 ~key:"a" ~value:"1");
      let others = List.filter (fun s -> Raft.Server.id s <> lid) g.servers in
      List.iter (fun s -> Cluster.Rpc.partition g.rpc lid (Raft.Server.id s)) others;
      (* this write reaches only the isolated leader: it is appended (and
         shipped as views into the void) but can never commit *)
      Depfast.Sched.spawn sched ~name:"doomed-put" (fun () ->
          ignore (Raft.Client.put c2 ~key:"doomed" ~value:"x"));
      Depfast.Sched.sleep sched (Sim.Time.sec 2);
      let div_idx = Raft.Rlog.last_index (Raft.Server.log old_leader) in
      check_bool "old leader diverged" true
        (div_idx > Raft.Server.commit_index old_leader);
      let doomed = Option.get (Raft.Rlog.get (Raft.Server.log old_leader) div_idx) in
      check_bool "majority side elected" true
        (List.exists (fun s -> Raft.Server.is_leader s) others);
      (* commit past the divergence point on the majority side *)
      check_bool "put b" true (Raft.Client.put c1 ~key:"b" ~value:"2");
      check_bool "put c" true (Raft.Client.put c1 ~key:"c" ~value:"3");
      List.iter (fun s -> Cluster.Rpc.heal g.rpc lid (Raft.Server.id s)) others;
      Depfast.Sched.sleep sched (Sim.Time.sec 2);
      (* the new leader's first ship to the deposed leader was rejected on
         the prev check; the sender rewound its in-flight window and backed
         off next_index until the logs matched, then overwrote the
         divergent suffix. (The deposed leader may since have won a later
         election — what matters is that everyone converged.) *)
      check_bool "caught up past divergence" true
        (Raft.Server.commit_index old_leader >= div_idx);
      (match Raft.Rlog.get (Raft.Server.log old_leader) div_idx with
      | Some e ->
        check_bool "divergent entry overwritten" false (Raft.Types.equal_entry doomed e)
      | None -> Alcotest.fail "missing entry at divergence index");
      let min_commit =
        List.fold_left (fun m s -> min m (Raft.Server.commit_index s)) max_int g.servers
      in
      check_bool "all committed past divergence" true (min_commit >= div_idx);
      let reference = Raft.Server.log (List.hd g.servers) in
      for i = 1 to min_commit do
        let e0 = Option.get (Raft.Rlog.get reference i) in
        List.iter
          (fun s ->
            match Raft.Rlog.get (Raft.Server.log s) i with
            | Some e when Raft.Types.equal_entry e e0 -> ()
            | _ -> Alcotest.fail (Printf.sprintf "logs disagree at %d" i))
          g.servers
      done)

(* ------------------------------------------------------------------ *)
(* Group commit: one fsync covers a whole batch, and replies stay
   correct when the leader is deposed mid-batch *)

let test_single_fsync_per_batch () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:8 () in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      let disk = Cluster.Node.disk (Raft.Server.node leader) in
      Depfast.Sched.sleep sched (Sim.Time.ms 100);
      Cluster.Disk.reset_stats disk;
      let done_ = ref 0 in
      List.iteri
        (fun ci c ->
          Depfast.Sched.spawn_here sched (fun () ->
              for i = 1 to 5 do
                ignore
                  (Raft.Client.put c ~key:(Printf.sprintf "c%d" ci)
                     ~value:(string_of_int i))
              done;
              incr done_))
        clients;
      Depfast.Sched.sleep sched (Sim.Time.sec 5);
      check_int "all client loops finished" 8 !done_;
      (* 40 committed writes, but group commit folds concurrent arrivals
         into shared entries: strictly fewer WAL fsyncs than ops *)
      let fsyncs = Cluster.Disk.fsync_count disk in
      check_bool "at least one batch hit the disk" true (fsyncs > 0);
      check_bool "fewer fsyncs than committed ops" true (fsyncs < 40);
      let h = Raft.Server.batch_hist leader in
      check_bool "batches recorded" true (Sim.Hist.count h > 0);
      check_bool "multi-command batches formed" true (Sim.Hist.mean h > 1.0);
      check_int "nothing shed at this load" 0 (Raft.Server.shed_count leader))

let test_batch_replies_across_leader_change () =
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:4 () in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      let lid = Raft.Server.id leader in
      let oks = Array.make 4 0 in
      List.iteri
        (fun ci c ->
          Depfast.Sched.spawn_here sched (fun () ->
              for i = 1 to 5 do
                if
                  Raft.Client.put c
                    ~key:(Printf.sprintf "c%d" ci)
                    ~value:(string_of_int i)
                then oks.(ci) <- oks.(ci) + 1
              done))
        clients;
      (* depose the leader mid-stream: some commands sit in its admission
         queue, some in a sealed-but-uncommitted batch.  The clients must
         retry under the same sequence numbers against the new leader *)
      Depfast.Sched.sleep sched (Sim.Time.ms 3);
      let others = List.filter (fun s -> Raft.Server.id s <> lid) g.servers in
      List.iter (fun s -> Cluster.Rpc.partition g.rpc lid (Raft.Server.id s)) others;
      Depfast.Sched.sleep sched (Sim.Time.sec 2);
      List.iter (fun s -> Cluster.Rpc.heal g.rpc lid (Raft.Server.id s)) others;
      Depfast.Sched.sleep sched (Sim.Time.sec 3);
      (* every client's every put was acknowledged exactly once, applied
         exactly once on every replica, and the last write won *)
      Array.iteri
        (fun ci n -> check_int (Printf.sprintf "client %d acks" ci) 5 n)
        oks;
      List.iter
        (fun s ->
          check_int
            (Printf.sprintf "applied once on s%d" (Raft.Server.id s))
            20
            (Raft.Kv.applied_count (Raft.Server.kv s)))
        g.servers;
      List.iteri
        (fun ci c ->
          match Raft.Client.get c ~key:(Printf.sprintf "c%d" ci) with
          | Some (Some v) -> Alcotest.(check string) "last write wins" "5" v
          | _ -> Alcotest.fail "client's key missing after leader change")
        clients)

let test_admission_shed_fail_fast () =
  let sched = make_env () in
  let cfg =
    { Raft.Config.default with Raft.Config.max_batch = 4; admission_depth = 2 }
  in
  let g = Raft.Group.create sched ~cfg ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:12 () in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      (* a fail-slow leader disk stretches every group-commit round, so
         offered load overruns the 2-deep admission queue *)
      Cluster.Station.set_speed
        (Cluster.Disk.station (Cluster.Node.disk (Raft.Server.node leader)))
        50.0;
      let done_ = ref 0 in
      List.iteri
        (fun ci c ->
          Depfast.Sched.spawn_here sched (fun () ->
              for i = 1 to 6 do
                ignore
                  (Raft.Client.put c ~key:(Printf.sprintf "k%d" ci)
                     ~value:(string_of_int i))
              done;
              incr done_))
        clients;
      Depfast.Sched.sleep sched (Sim.Time.sec 8);
      check_int "all client loops finished" 12 !done_;
      check_bool "overload shed requests" true (Raft.Server.shed_count leader > 0);
      (* sheds are explicit replies, not drops: every one reached a client *)
      let client_sheds =
        List.fold_left (fun a c -> a + Raft.Client.ops_shed c) 0 clients
      in
      check_int "every shed reply reached a client" (Raft.Server.shed_count leader)
        client_sheds;
      check_bool "queue never past its bound" true
        (Raft.Server.pending_depth leader <= 2))

(* ------------------------------------------------------------------ *)
(* Safety properties under randomized fault schedules *)

let safety_run seed =
  let sched = make_env ~seed () in
  let g = Raft.Group.create sched ~n:5 () in
  let clients = Raft.Group.make_clients g ~count:3 () in
  let rng = Sim.Rng.create seed in
  (* track leaders per term as the run evolves *)
  let leaders_by_term : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let violation = ref None in
  Depfast.Sched.spawn sched ~name:"safety-observer" (fun () ->
      let rec observe () =
        List.iter
          (fun s ->
            if Raft.Server.is_leader s then begin
              let tm = Raft.Server.term s in
              match Hashtbl.find_opt leaders_by_term tm with
              | Some other when other <> Raft.Server.id s ->
                violation := Some (Printf.sprintf "two leaders in term %d" tm)
              | _ -> Hashtbl.replace leaders_by_term tm (Raft.Server.id s)
            end)
          g.servers;
        Depfast.Sched.sleep sched (Sim.Time.ms 20);
        if Depfast.Sched.now sched < Sim.Time.sec 12 then observe ()
      in
      observe ());
  (* clients hammer away *)
  List.iteri
    (fun ci c ->
      Depfast.Sched.spawn sched ~name:"safety-client" (fun () ->
          ignore (Raft.Group.wait_for_leader g);
          for i = 1 to 30 do
            ignore
              (Raft.Client.put c ~key:(Printf.sprintf "k%d" (i mod 7))
                 ~value:(Printf.sprintf "c%d-%d" ci i))
          done))
    clients;
  (* adversary: random partitions healing over time *)
  Depfast.Sched.spawn sched ~name:"adversary" (fun () ->
      for _ = 1 to 6 do
        Depfast.Sched.sleep sched (Sim.Time.ms (Sim.Rng.int_in rng 300 900));
        let a = Sim.Rng.int rng 5 and b = Sim.Rng.int rng 5 in
        if a <> b then begin
          Cluster.Rpc.partition g.rpc a b;
          Depfast.Sched.sleep sched (Sim.Time.ms (Sim.Rng.int_in rng 200 700));
          Cluster.Rpc.heal g.rpc a b
        end
      done);
  Depfast.Sched.run ~until:(Sim.Time.sec 15) sched;
  (match !violation with
  | Some v -> Alcotest.fail v
  | None -> ());
  (* log matching: committed prefixes agree across all servers *)
  let min_commit =
    List.fold_left (fun m s -> min m (Raft.Server.commit_index s)) max_int g.servers
  in
  let reference = Raft.Server.log (List.hd g.servers) in
  for i = 1 to min_commit do
    let e0 = Option.get (Raft.Rlog.get reference i) in
    List.iter
      (fun s ->
        match Raft.Rlog.get (Raft.Server.log s) i with
        | Some e when Raft.Types.equal_entry e e0 -> ()
        | Some _ -> Alcotest.fail (Printf.sprintf "log mismatch at %d" i)
        | None -> Alcotest.fail (Printf.sprintf "missing committed entry %d" i))
      g.servers
  done

(* Soak: an elected 3-node group with no clients and the trace off does
   nothing but heartbeat, so its live heap must not grow. Every heartbeat
   round the leader's senders wait on its work condvar with a timeout; a
   timed-out second waiter once left a generation-stamped closure on that
   event, which grew by about 100 k live words between 15 s and 60 s *)
let test_idle_leader_heap_flat () =
  let engine = Sim.Engine.create ~seed:1L () in
  let sched = Depfast.Sched.create ~trace:(Depfast.Trace.create ~enabled:false ()) engine in
  let g = Raft.Group.create sched ~n:3 () in
  Depfast.Sched.spawn sched (fun () -> Raft.Group.elect g 0);
  let live_at t =
    Depfast.Sched.run ~until:t sched;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let at_15 = live_at (Sim.Time.sec 15) in
  check_bool "a leader idles" true (Option.is_some (Raft.Group.leader g));
  let growth = live_at (Sim.Time.sec 60) - at_15 in
  if growth > 1_000 then Alcotest.failf "live heap grew by %d words from 15 s to 60 s" growth;
  ignore (Sys.opaque_identity g)

(* A committed write is answered with the leader's one shared
   acknowledgement: two Puts get the physically same reply, option and
   all, while a read, a shed request and a follower's redirect each build
   their own, carrying their value or hint *)
let test_committed_writes_share_one_reply () =
  let client_resp = function
    | Some (Raft.Types.Client_resp { ok; shed; leader_hint; value }) -> (ok, shed, leader_hint, value)
    | _ -> Alcotest.fail "not a client reply"
  in
  let request s cmd seq =
    Raft.Server.handle s (Raft.Types.Client_request { cmd; client_id = 7; seq })
  in
  let sched = make_env () in
  let g = Raft.Group.create sched ~n:3 () in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      let id = Some (Raft.Server.id leader) in
      let r1 = request leader (Raft.Types.Put { key = "a"; value = "1" }) 1 in
      let r2 = request leader (Raft.Types.Put { key = "b"; value = "2" }) 2 in
      check_bool "two writes, one reply" true (r1 == r2);
      check_bool "an acknowledgement naming the leader" true
        (client_resp r1 = (true, false, id, None));
      check_bool "a read carries its value" true
        (client_resp (request leader (Raft.Types.Get { key = "a" }) 3)
        = (true, false, id, Some "1"));
      let follower = List.find (fun s -> not (Raft.Server.is_leader s)) g.servers in
      check_bool "a follower points at the leader" true
        (client_resp (request follower (Raft.Types.Put { key = "c"; value = "3" }) 4)
        = (false, false, id, None)));
  (* no admission slot: every request is shed at the door *)
  let sched = make_env () in
  let cfg = { Raft.Config.default with Raft.Config.admission_depth = 0 } in
  let g = Raft.Group.create sched ~cfg ~n:3 () in
  in_coroutine sched (fun () ->
      let leader = Option.get (Raft.Group.wait_for_leader g) in
      check_bool "a shed reply names the leader" true
        (client_resp (request leader (Raft.Types.Put { key = "a"; value = "1" }) 1)
        = (false, true, Some (Raft.Server.id leader), None)))

(* ------------------------------------------------------------------ *)
(* Allocation pins: the log and session lookups on the apply and append
   paths box nothing *)

let words_per = Test_sim.words_per
let check_words = Test_sim.check_words

(* a Put from a session the store knows, to a key it binds: the session
   lookup, the dedup check, the store write and the session bump *)
let test_kv_known_put_alloc () =
  let kv = Raft.Kv.create () in
  let cmd = Raft.Types.Put { key = "k"; value = "v" } in
  ignore (Raft.Kv.apply_cmd kv ~cmd ~client_id:3 ~seq:0);
  check_words "Kv.apply_cmd, a known session's Put" 0.0
    (words_per 10_000 (fun seq -> ignore (Raft.Kv.apply_cmd kv ~cmd ~client_id:3 ~seq)));
  check_int "every Put applied" 10_001 (Raft.Kv.applied_count kv)

(* the follower's consistency check and the term lookup, inside the log
   and past it *)
let test_rlog_lookup_alloc () =
  let log = Raft.Rlog.create () in
  for index = 1 to 100 do
    Raft.Rlog.append log
      { Raft.Types.term = 1 + (index / 40); index; cmd = Raft.Types.Nop; client_id = -1; seq = 0 }
  done;
  let acc = ref 0 in
  check_words "Rlog.term_of" 0.0
    (words_per 10_000 (fun i -> acc := !acc + Raft.Rlog.term_of log (i mod 120)));
  check_words "Rlog.matches" 0.0
    (words_per 10_000 (fun i ->
         if Raft.Rlog.matches log ~prev_index:(i mod 120) ~prev_term:2 then incr acc));
  check_int "term past the log" (-1) (Raft.Rlog.term_of log 101);
  check_int "term at the sentinel" 0 (Raft.Rlog.term_of log 0);
  check_int "term inside" 3 (Raft.Rlog.term_of log 100);
  check_bool "no match past the log" false (Raft.Rlog.matches log ~prev_index:101 ~prev_term:(-1))

let test_safety_randomized () =
  List.iter safety_run [ 11L; 23L; 47L ]

let suite =
  [
    ( "raft.cluster",
      [
        Alcotest.test_case "boot election" `Quick test_election_on_boot;
        Alcotest.test_case "group reset equals a fresh group" `Quick
          test_group_reset_equals_fresh;
        Alcotest.test_case "put/get roundtrip" `Quick test_put_get_roundtrip;
        Alcotest.test_case "replicas converge" `Quick test_replicas_converge;
        Alcotest.test_case "exactly-once dedup" `Quick test_exactly_once_dedup;
        Alcotest.test_case "follower crash tolerated" `Quick test_follower_crash_tolerated;
        Alcotest.test_case "leader crash re-election" `Quick test_leader_crash_reelection;
        Alcotest.test_case "partition and heal" `Quick test_partition_minority_blocks;
        Alcotest.test_case "leadership transfer" `Quick test_leadership_transfer;
        Alcotest.test_case "rlog view generation" `Quick test_rlog_view_generation;
        Alcotest.test_case "pipeline rewind after reject" `Quick
          test_pipeline_rewind_after_reject;
        Alcotest.test_case "single fsync per batch" `Quick test_single_fsync_per_batch;
        Alcotest.test_case "batch replies across leader change" `Quick
          test_batch_replies_across_leader_change;
        Alcotest.test_case "admission shed fails fast" `Quick
          test_admission_shed_fail_fast;
        Alcotest.test_case "an idle leader's heap stays flat" `Quick
          test_idle_leader_heap_flat;
        Alcotest.test_case "committed writes share one reply" `Quick
          test_committed_writes_share_one_reply;
      ] );
    ( "raft.alloc",
      [
        Alcotest.test_case "a known session's Put allocates nothing" `Quick
          test_kv_known_put_alloc;
        Alcotest.test_case "log term lookups allocate nothing" `Quick test_rlog_lookup_alloc;
      ] );
    ( "raft.safety",
      [ Alcotest.test_case "randomized partitions" `Slow test_safety_randomized ] );
  ]
