(* Behavioural tests for the four baseline RSM implementations: each must
   work correctly when healthy, and exhibit its diagnosed fail-slow
   pathology when a follower is slowed. Runs use shrunk workloads to stay
   fast. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_workload = Workload.Ycsb.scaled ~records:1_000 Workload.Ycsb.update_heavy

type built = {
  sut : Workload.Sut.t;
  sched : Depfast.Sched.t;
  bases : Raft.Replica.t list;  (** leader first *)
}

(* build a system through its cluster record *)
let build_system which =
  let sched = Depfast.Sched.create (Sim.Engine.create ~seed:7L ()) in
  let cfg = Raft.Config.default in
  let built c sut = { sut; sched; bases = c.Baseline.Common.g.Raft.Group.servers } in
  match which with
  | `Mongo ->
    let c = Baseline.Mongo_like.create sched ~n:3 ~cfg () in
    built c (Baseline.Mongo_like.sut c)
  | `Tidb ->
    let c = Baseline.Tidb_like.create sched ~n:3 ~cfg () in
    built c (Baseline.Tidb_like.sut c)
  | `Rethink ->
    let c = Baseline.Rethink_like.create sched ~n:3 ~cfg () in
    built c (Baseline.Rethink_like.sut c)
  | `Chain ->
    let c = Baseline.Chain.create sched ~n:3 ~cfg () in
    built c (Baseline.Chain.sut c)

let run_load b ~clients ~seconds =
  Workload.Driver.run b.sched
    ~clients:(b.sut.Workload.Sut.make_clients ~count:clients)
    ~workload:small_workload ~warmup:(Sim.Time.ms 500)
    ~duration:(Sim.Time.sec seconds) ~leader_node:b.sut.Workload.Sut.leader_node ()

let healthy_serves which () =
  let b = build_system which in
  let m = run_load b ~clients:32 ~seconds:3 in
  check_bool "serves thousands of ops"
    true
    (Workload.Metrics.throughput m > 1000.0);
  check_bool "no crash" false m.Workload.Metrics.leader_crashed;
  check_int "no failures" 0 m.Workload.Metrics.failed

let test_mongo_healthy () = healthy_serves `Mongo ()
let test_tidb_healthy () = healthy_serves `Tidb ()
let test_rethink_healthy () = healthy_serves `Rethink ()

let test_tidb_blocking_reads_triggered () =
  let engine = Sim.Engine.create ~seed:7L () in
  let sched = Depfast.Sched.create engine in
  let cfg = Raft.Config.default in
  let cluster = Baseline.Tidb_like.create sched ~n:3 ~cfg () in
  let sut = Baseline.Tidb_like.sut cluster in
  ignore
    (Cluster.Fault.inject (List.hd sut.Workload.Sut.follower_nodes) Cluster.Fault.Cpu_slow);
  ignore
    (Workload.Driver.run sched
       ~clients:(sut.Workload.Sut.make_clients ~count:64)
       ~workload:small_workload ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.sec 5)
       ~leader_node:sut.Workload.Sut.leader_node ());
  check_bool "EntryCache misses forced blocking reads" true
    (Baseline.Tidb_like.blocked_disk_reads cluster > 50)

let test_tidb_big_cache_avoids_reads () =
  let engine = Sim.Engine.create ~seed:7L () in
  let sched = Depfast.Sched.create engine in
  let cfg = Raft.Config.default in
  let cluster = Baseline.Tidb_like.create sched ~n:3 ~cfg () in
  Baseline.Tidb_like.set_cache_size cluster (max_int / 2);
  let sut = Baseline.Tidb_like.sut cluster in
  ignore
    (Cluster.Fault.inject (List.hd sut.Workload.Sut.follower_nodes) Cluster.Fault.Cpu_slow);
  ignore
    (Workload.Driver.run sched
       ~clients:(sut.Workload.Sut.make_clients ~count:64)
       ~workload:small_workload ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.sec 5)
       ~leader_node:sut.Workload.Sut.leader_node ());
  check_int "unbounded cache: no blocking reads" 0
    (Baseline.Tidb_like.blocked_disk_reads cluster)

let test_rethink_backlog_grows_and_ooms () =
  let engine = Sim.Engine.create ~seed:7L () in
  let sched = Depfast.Sched.create engine in
  let cfg = Raft.Config.default in
  let cluster = Baseline.Rethink_like.create sched ~n:3 ~cfg () in
  let sut = Baseline.Rethink_like.sut cluster in
  let victim = List.hd sut.Workload.Sut.follower_nodes in
  ignore (Cluster.Fault.inject victim Cluster.Fault.Cpu_slow);
  let m =
    Workload.Driver.run sched
      ~clients:(sut.Workload.Sut.make_clients ~count:400)
      ~workload:small_workload ~warmup:(Sim.Time.sec 1) ~duration:(Sim.Time.sec 14)
      ~leader_node:sut.Workload.Sut.leader_node ()
  in
  (* the paper's observation: CPU fail-slow follower -> leader OOM crash *)
  check_bool "unbounded buffer grew" true
    (Baseline.Rethink_like.buffer_bytes cluster (Cluster.Node.id victim) > 1_000_000);
  check_bool "leader crashed" true m.Workload.Metrics.leader_crashed

let test_rethink_healthy_buffer_bounded () =
  let engine = Sim.Engine.create ~seed:7L () in
  let sched = Depfast.Sched.create engine in
  let cfg = Raft.Config.default in
  let cluster = Baseline.Rethink_like.create sched ~n:3 ~cfg () in
  let sut = Baseline.Rethink_like.sut cluster in
  let m =
    Workload.Driver.run sched
      ~clients:(sut.Workload.Sut.make_clients ~count:64)
      ~workload:small_workload ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.sec 8)
      ~leader_node:sut.Workload.Sut.leader_node ()
  in
  check_bool "no crash when healthy" false m.Workload.Metrics.leader_crashed;
  List.iter
    (fun f ->
      check_bool "buffer drained" true
        (Baseline.Rethink_like.buffer_bytes cluster (Cluster.Node.id f) < 1_000_000))
    sut.Workload.Sut.follower_nodes

let test_mongo_lag_mode_engages () =
  let engine = Sim.Engine.create ~seed:7L () in
  let sched = Depfast.Sched.create engine in
  let cfg = Raft.Config.default in
  let cluster = Baseline.Mongo_like.create sched ~n:3 ~cfg () in
  let sut = Baseline.Mongo_like.sut cluster in
  ignore
    (Cluster.Fault.inject (List.hd sut.Workload.Sut.follower_nodes) Cluster.Fault.Cpu_slow);
  ignore
    (Workload.Driver.run sched
       ~clients:(sut.Workload.Sut.make_clients ~count:64)
       ~workload:small_workload ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.sec 6)
       ~leader_node:sut.Workload.Sut.leader_node ());
  check_bool "cold catch-up pulls observed" true (Baseline.Mongo_like.cold_pulls cluster > 0);
  check_bool "cache-interference mode engaged" true (Baseline.Mongo_like.in_lag_mode cluster)

(* after the load and a drain, every follower holds the leader's log entry
   for entry and has applied a non-empty prefix of what the leader applied *)
let test_replicas_converge which () =
  let b = build_system which in
  ignore (run_load b ~clients:16 ~seconds:2);
  let engine = Depfast.Sched.engine b.sched in
  Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.sec 2)) engine;
  let leader = List.hd b.bases in
  let last = Raft.Rlog.last_index leader.Raft.Replica.rlog in
  check_bool "leader logged writes" true (last > 1000);
  List.iter
    (fun (f : Raft.Replica.t) ->
      check_int "same last index" last (Raft.Rlog.last_index f.rlog);
      for i = 1 to last do
        if Raft.Rlog.get f.rlog i <> Raft.Rlog.get leader.rlog i then
          Alcotest.failf "%s: entry %d differs" b.sut.Workload.Sut.name i
      done;
      check_bool "follower applied" true (f.last_applied >= 1);
      check_bool "no more than the leader" true
        (f.last_applied <= leader.Raft.Replica.last_applied))
    (List.tl b.bases)

let test_convergence_all () =
  List.iter (fun which -> test_replicas_converge which ()) [ `Mongo; `Tidb; `Rethink; `Chain ]

(* the buffer policy is a value of the shared client path: the baselines
   admit without a bound, so DepFastRaft's 2-deep admission queue setting
   sheds nothing on them and their leader's queue grows past it *)
let test_admit_without_bound which () =
  let sched = Depfast.Sched.create (Sim.Engine.create ~seed:7L ()) in
  let cfg = { Raft.Config.default with Raft.Config.admission_depth = 2 } in
  let sut, g =
    match which with
    | `Tidb ->
      let c = Baseline.Tidb_like.create sched ~n:3 ~cfg () in
      (Baseline.Tidb_like.sut c, c.Baseline.Common.g)
    | `Rethink ->
      let c = Baseline.Rethink_like.create sched ~n:3 ~cfg () in
      (Baseline.Rethink_like.sut c, c.Baseline.Common.g)
  in
  let leader = List.hd g.Raft.Group.servers in
  let deepest = ref 0 in
  Depfast.Sched.spawn sched (fun () ->
      for _ = 1 to 2_000 do
        deepest := max !deepest (Raft.Server.pending_depth leader);
        Depfast.Sched.sleep sched (Sim.Time.ms 1)
      done);
  let m =
    Workload.Driver.run sched ~clients:(sut.Workload.Sut.make_clients ~count:12)
      ~workload:small_workload ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.sec 1)
      ~leader_node:sut.Workload.Sut.leader_node ()
  in
  check_int "no shed replies" 0 m.Workload.Metrics.shed;
  check_int "the leader shed nothing" 0 (Raft.Server.shed_count leader);
  check_bool "the leader's queue grew past the admission depth" true (!deepest > 2)

(* ------------------------------------------------------------------ *)
(* Chain replication (§3.3 tradeoff substrate) *)

let test_chain_serves_and_replicates () =
  let engine = Sim.Engine.create ~seed:7L () in
  let sched = Depfast.Sched.create engine in
  let cfg = Raft.Config.default in
  let cluster = Baseline.Chain.create sched ~n:3 ~cfg () in
  let sut = Baseline.Chain.sut cluster in
  let m =
    Workload.Driver.run sched
      ~clients:(sut.Workload.Sut.make_clients ~count:32)
      ~workload:small_workload ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.sec 3)
      ~leader_node:sut.Workload.Sut.leader_node ()
  in
  check_bool "chain serves" true (Workload.Metrics.throughput m > 500.0);
  check_bool "tail acked writes" true (Baseline.Chain.tail_acked cluster > 1000)

let test_chain_fail_slow_propagates () =
  (* the §3.3 point: ANY single fail-slow node stalls the whole chain *)
  let run fault =
    let engine = Sim.Engine.create ~seed:7L () in
    let sched = Depfast.Sched.create engine in
    let cfg = Raft.Config.default in
    let cluster = Baseline.Chain.create sched ~n:3 ~cfg () in
    let sut = Baseline.Chain.sut cluster in
    (match fault with
    | None -> ()
    | Some k -> ignore (Cluster.Fault.inject (List.hd sut.Workload.Sut.follower_nodes) k));
    Workload.Metrics.throughput
      (Workload.Driver.run sched
         ~clients:(sut.Workload.Sut.make_clients ~count:32)
         ~workload:small_workload ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.sec 3)
         ~leader_node:sut.Workload.Sut.leader_node ())
  in
  let healthy = run None in
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "chain collapses under one %s node" (Cluster.Fault.name k))
        true
        (run (Some k) < healthy /. 2.0))
    [ Cluster.Fault.Cpu_slow; Cluster.Fault.Net_slow ]

let suite =
  [
    ( "baseline.healthy",
      [
        Alcotest.test_case "mongo-like serves" `Quick test_mongo_healthy;
        Alcotest.test_case "tidb-like serves" `Quick test_tidb_healthy;
        Alcotest.test_case "rethink-like serves" `Quick test_rethink_healthy;
        Alcotest.test_case "replication converges" `Quick test_convergence_all;
        Alcotest.test_case "tidb-like admits without a bound" `Quick
          (test_admit_without_bound `Tidb);
        Alcotest.test_case "rethink-like admits without a bound" `Quick
          (test_admit_without_bound `Rethink);
      ] );
    ( "baseline.pathologies",
      [
        Alcotest.test_case "tidb: blocking EntryCache reads" `Quick
          test_tidb_blocking_reads_triggered;
        Alcotest.test_case "tidb: big cache avoids reads" `Quick
          test_tidb_big_cache_avoids_reads;
        Alcotest.test_case "rethink: backlog -> OOM crash" `Slow
          test_rethink_backlog_grows_and_ooms;
        Alcotest.test_case "rethink: bounded when healthy" `Quick
          test_rethink_healthy_buffer_bounded;
        Alcotest.test_case "mongo: catch-up lag mode" `Quick test_mongo_lag_mode_engages;
      ] );
    ( "baseline.chain",
      [
        Alcotest.test_case "chain serves" `Quick test_chain_serves_and_replicates;
        Alcotest.test_case "fail-slow propagates through chain" `Quick
          test_chain_fail_slow_propagates;
      ] );
  ]
