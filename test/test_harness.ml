(* Smoke tests of the experiment harness: every table/figure generator runs
   and produces sane, structurally correct results (tiny parameters). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny =
  {
    Harness.Params.seed = 7L;
    clients = 32;
    warmup = Sim.Time.ms 300;
    duration = Sim.Time.sec 2;
    records = 2_000;
  }

let test_table1_rows () =
  let rows = Harness.Table1.rows () in
  check_int "six faults" 6 (List.length rows);
  List.iter
    (fun (name, paper, sim) ->
      check_bool "named" true (name <> "");
      check_bool "paper column" true (paper <> "");
      check_bool "sim column" true (sim <> ""))
    rows

let test_runner_depfast_cell () =
  let cell =
    Harness.Runner.run_cell ~params:tiny ~system:Harness.Runner.Depfast_raft ~n:3
      ~slow_count:1 ~fault:(Some Cluster.Fault.Cpu_slow) ()
  in
  let m = cell.Harness.Runner.metrics in
  check_bool "throughput > 0" true (Workload.Metrics.throughput m > 100.0);
  check_bool "no crash" false m.Workload.Metrics.leader_crashed;
  check_bool "latency sane" true (Workload.Metrics.mean_latency_ms m > 0.1)

(* End-to-end allocation ceilings: minor and promoted words per committed
   op of a small healthy DepFastRaft cell ([Params.quick]'s keyspace and
   clients over a short window), set-up included. Minor reads 178.2, and
   200.0 while a committed write's reply, its two options and the
   client's outcome were built per request and the session and log-term
   lookups boxed an option. Promoted depends on what the process ran
   before: 41.8 run alone and 40.9 in the whole suite, against 42.3 and
   41.3 before. Each ceiling sits between the last two readings (the
   promoted one between the readings run alone). CHANGES.md keeps the
   history. *)
let cell_words_per_op () =
  let params =
    { Harness.Params.quick with warmup = Sim.Time.ms 100; duration = Sim.Time.ms 400 }
  in
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let cell =
    Harness.Runner.run_cell ~params ~system:Harness.Runner.Depfast_raft ~n:3 ~slow_count:0
      ~fault:None ()
  in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let m = cell.Harness.Runner.metrics in
  check_bool "ops committed" true (m.Workload.Metrics.completed > 1_000);
  let per_op x0 x1 = (x1 -. x0) /. float_of_int m.Workload.Metrics.completed in
  (per_op s0.Gc.minor_words s1.Gc.minor_words, per_op s0.Gc.promoted_words s1.Gc.promoted_words)

let test_cell_alloc_ceiling () =
  let minor, promoted = cell_words_per_op () in
  if minor > 190.0 then Alcotest.failf "%.1f minor words per committed op > ceiling 190" minor;
  if promoted > 42.0 then
    Alcotest.failf "%.1f promoted words per committed op > ceiling 42" promoted

let test_runner_all_systems_build () =
  List.iter
    (fun system ->
      let cell =
        Harness.Runner.run_cell ~params:tiny ~system ~n:3 ~slow_count:1 ~fault:None ()
      in
      check_bool
        (Harness.Runner.system_name system ^ " serves")
        true
        (Workload.Metrics.throughput cell.Harness.Runner.metrics > 100.0))
    Harness.Runner.all_systems

let test_fig2_structure () =
  let r = Harness.Fig2.run () in
  check_bool "audit passes" true r.Harness.Fig2.intra_group_tolerant;
  let greens = List.filter (fun e -> e.Depfast.Spg.color = Depfast.Spg.Green) r.Harness.Fig2.edges in
  let reds = List.filter (fun e -> e.Depfast.Spg.color = Depfast.Spg.Red) r.Harness.Fig2.edges in
  (* three quorums x two followers = 6 green edges; 3 client->leader reds *)
  check_int "six quorum edges" 6 (List.length greens);
  check_bool "client edges red" true (List.length reds >= 3);
  List.iter
    (fun e ->
      check_int "2-of-3 arity" 2 e.Depfast.Spg.quorum_k;
      check_int "over 3 children" 3 e.Depfast.Spg.quorum_n)
    greens;
  (* every red edge originates at a client (node id >= 100) *)
  List.iter (fun e -> check_bool "red from client" true (e.Depfast.Spg.src >= 100)) reds

let test_fig3_drift_band_quick () =
  (* quick single-setup variant of the §3.4 claim: CPU-slow follower on a
     3-node cluster stays within a loose drift band even at small scale *)
  let rows = Harness.Fig3.run_setup ~params:tiny ~n:3 () in
  check_int "seven rows" 7 (List.length rows);
  let base = List.hd rows in
  check_bool "baseline row is no-fault" true (base.Harness.Fig3.fault = None);
  List.iter
    (fun r ->
      check_bool
        (Harness.Runner.fault_name r.Harness.Fig3.fault ^ " tput drift bounded")
        true
        (Float.abs r.Harness.Fig3.drift_tput < 0.25))
    rows

(* The paper's Figure 1 shape (§2.2): every baseline degrades under some
   Table-1 fault, and TiDB-like shows the largest worst-case p99 ratio,
   inside the paper's 1.6-3.46x band. The short window (about 0.8 s of
   wall time) keeps the shape on seeds 3, 5, 7 and 11; [Params.quick]
   (fig1 --quick) reads worst tput 0.89 for MongoDB-like and worst p99
   2.26 for TiDB-like and 1.29 for RethinkDB-like. *)
let test_fig1_shape () =
  let params =
    {
      Harness.Params.quick with
      clients = 32;
      warmup = Sim.Time.ms 200;
      duration = Sim.Time.ms 600;
      records = 2_000;
    }
  in
  let rows = Harness.Fig1.run ~params () in
  let worst_p99 system =
    List.fold_left
      (fun acc (r : Harness.Fig1.row) ->
        if r.system = system && r.fault <> None then max acc r.p99_latency_norm else acc)
      0.0 rows
  in
  List.iter
    (fun system ->
      check_bool
        (Harness.Runner.system_name system ^ " degrades under some fault")
        true
        (List.exists
           (fun (r : Harness.Fig1.row) ->
             r.system = system && r.fault <> None
             && (r.throughput_norm <= 0.95 || r.p99_latency_norm >= 1.10))
           rows))
    Harness.Runner.baseline_systems;
  let tidb = worst_p99 Harness.Runner.Tidb_like in
  check_bool "TiDB-like worst p99 within 1.6-3.46x" true (tidb >= 1.6 && tidb <= 3.46);
  List.iter
    (fun system ->
      check_bool
        (Harness.Runner.system_name system ^ " worst p99 below TiDB-like's")
        true
        (worst_p99 system < tidb))
    [ Harness.Runner.Mongo_like; Harness.Runner.Rethink_like ]

let test_minority_counts () =
  check_int "3 nodes -> 1 slow" 1 (Harness.Fig3.minority 3);
  check_int "5 nodes -> 2 slow" 2 (Harness.Fig3.minority 5);
  check_int "7 nodes -> 3 slow" 3 (Harness.Fig3.minority 7)

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "table1 rows" `Quick test_table1_rows;
        Alcotest.test_case "depfast cell runs" `Quick test_runner_depfast_cell;
        Alcotest.test_case "cell allocation ceiling" `Quick test_cell_alloc_ceiling;
        Alcotest.test_case "all systems build" `Slow test_runner_all_systems_build;
        Alcotest.test_case "fig2 structure" `Quick test_fig2_structure;
        Alcotest.test_case "fig3 drift (quick)" `Slow test_fig3_drift_band_quick;
        Alcotest.test_case "minority sizing" `Quick test_minority_counts;
        Alcotest.test_case "fig1 shape" `Quick test_fig1_shape;
      ] );
  ]
