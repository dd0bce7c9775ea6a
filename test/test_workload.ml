(* Tests for the core concurrency utilities (Mutex, Condvar) and the
   workload library (YCSB generator, metrics, closed-loop driver). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_sched ?(seed = 1L) () = Depfast.Sched.create (Sim.Engine.create ~seed ())

(* ------------------------------------------------------------------ *)
(* Condvar *)

let test_condvar_broadcast_wakes_all () =
  let s = make_sched () in
  let cv = Depfast.Condvar.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Depfast.Sched.spawn s (fun () ->
        Depfast.Condvar.wait s cv;
        incr woken)
  done;
  ignore (Sim.Engine.schedule (Depfast.Sched.engine s) ~delay:10 (fun () ->
      Depfast.Condvar.broadcast cv));
  Depfast.Sched.run s;
  check_int "all woken" 3 !woken

let test_condvar_renews () =
  let s = make_sched () in
  let cv = Depfast.Condvar.create () in
  let phases = ref [] in
  Depfast.Sched.spawn s (fun () ->
      Depfast.Condvar.wait s cv;
      phases := 1 :: !phases;
      Depfast.Condvar.wait s cv;
      phases := 2 :: !phases);
  ignore (Sim.Engine.schedule (Depfast.Sched.engine s) ~delay:10 (fun () ->
      Depfast.Condvar.broadcast cv));
  ignore (Sim.Engine.schedule (Depfast.Sched.engine s) ~delay:20 (fun () ->
      Depfast.Condvar.broadcast cv));
  Depfast.Sched.run s;
  Alcotest.(check (list int)) "two distinct waits" [ 1; 2 ] (List.rev !phases)

let test_condvar_timeout () =
  let s = make_sched () in
  let cv = Depfast.Condvar.create () in
  let outcome = ref Depfast.Sched.Ready in
  Depfast.Sched.spawn s (fun () ->
      outcome := Depfast.Condvar.wait_timeout s cv (Sim.Time.ms 5));
  Depfast.Sched.run s;
  check_bool "timed out" true (!outcome = Depfast.Sched.Timed_out)

(* ------------------------------------------------------------------ *)
(* Mutex *)

let test_mutex_mutual_exclusion () =
  let s = make_sched () in
  let mu = Depfast.Mutex.create () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for _ = 1 to 5 do
    Depfast.Sched.spawn s (fun () ->
        Depfast.Mutex.with_lock s mu (fun () ->
            incr inside;
            max_inside := max !max_inside !inside;
            Depfast.Sched.sleep s (Sim.Time.ms 1);
            decr inside))
  done;
  Depfast.Sched.run s;
  check_int "never concurrent" 1 !max_inside

let test_mutex_fifo_order () =
  let s = make_sched () in
  let mu = Depfast.Mutex.create () in
  let order = ref [] in
  for i = 1 to 4 do
    Depfast.Sched.spawn s (fun () ->
        (* stagger arrivals *)
        Depfast.Sched.sleep s (Sim.Time.us i);
        Depfast.Mutex.with_lock s mu (fun () ->
            order := i :: !order;
            Depfast.Sched.sleep s (Sim.Time.ms 1)))
  done;
  Depfast.Sched.run s;
  Alcotest.(check (list int)) "acquired in arrival order" [ 1; 2; 3; 4 ] (List.rev !order)

let test_mutex_exception_releases () =
  let s = make_sched () in
  let mu = Depfast.Mutex.create () in
  let second_ran = ref false in
  Depfast.Sched.spawn s (fun () ->
      (try Depfast.Mutex.with_lock s mu (fun () -> failwith "boom")
       with Failure _ -> ());
      check_bool "released" false (Depfast.Mutex.locked mu));
  Depfast.Sched.run s;
  Depfast.Sched.spawn s (fun () ->
      Depfast.Mutex.with_lock s mu (fun () -> second_ran := true));
  Depfast.Sched.run s;
  check_bool "lock reusable" true !second_ran

let test_mutex_unlock_unheld_raises () =
  let mu = Depfast.Mutex.create () in
  Alcotest.check_raises "unlock unheld" (Invalid_argument "Mutex.unlock: not locked")
    (fun () -> Depfast.Mutex.unlock mu)

(* ------------------------------------------------------------------ *)
(* YCSB *)

let test_ycsb_update_heavy_shape () =
  let wl = Workload.Ycsb.update_heavy in
  check_int "500K records" 500_000 wl.Workload.Ycsb.record_count;
  check_bool "write-only" true (wl.Workload.Ycsb.read_proportion = 0.0);
  let gen = Workload.Ycsb.make_gen wl (Sim.Rng.create 4L) in
  for _ = 1 to 200 do
    match Workload.Ycsb.next_op gen with
    | Workload.Ycsb.Update { value; _ } -> check_int "1KiB values" 1024 (String.length value)
    | Workload.Ycsb.Read _ -> Alcotest.fail "write-only workload emitted a read"
  done

let test_ycsb_ops_valid () =
  let wl = Workload.Ycsb.scaled ~records:100 Workload.Ycsb.update_heavy in
  let gen = Workload.Ycsb.make_gen wl (Sim.Rng.create 5L) in
  for _ = 1 to 1000 do
    match Workload.Ycsb.next_op gen with
    | Workload.Ycsb.Update { key; value } ->
      check_bool "key prefix" true (String.length key > 4 && String.sub key 0 4 = "user");
      check_int "value size" 1024 (String.length value)
    | Workload.Ycsb.Read _ -> Alcotest.fail "write-only workload emitted a read"
  done

let test_ycsb_read_mix () =
  let wl = { Workload.Ycsb.record_count = 100; read_proportion = 0.5 } in
  let gen = Workload.Ycsb.make_gen wl (Sim.Rng.create 6L) in
  let reads = ref 0 in
  for _ = 1 to 2000 do
    match Workload.Ycsb.next_op gen with
    | Workload.Ycsb.Read _ -> incr reads
    | Workload.Ycsb.Update _ -> ()
  done;
  check_bool "about half reads" true (!reads > 850 && !reads < 1150)

let test_ycsb_zipfian_skew () =
  let wl = Workload.Ycsb.scaled ~records:1000 Workload.Ycsb.update_heavy in
  let gen = Workload.Ycsb.make_gen wl (Sim.Rng.create 7L) in
  let counts = Hashtbl.create 64 in
  for _ = 1 to 20_000 do
    match Workload.Ycsb.next_op gen with
    | Workload.Ycsb.Update { key; _ } ->
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
    | Workload.Ycsb.Read _ -> ()
  done;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  check_bool "zipfian head" true (hottest > 20_000 / 100)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metrics_with ?(shed = 0) ?(leader_fsyncs = 0) latencies duration =
  let h = Sim.Hist.create () in
  List.iter (Sim.Hist.add h) latencies;
  {
    Workload.Metrics.duration;
    completed = List.length latencies;
    failed = 0;
    shed;
    latency = h;
    leader_utilization = 0.5;
    leader_crashed = false;
    leader_fsyncs;
  }

let test_metrics_throughput () =
  let m = metrics_with [ 100; 200; 300; 400 ] (Sim.Time.sec 2) in
  Alcotest.(check (float 1e-9)) "ops/s" 2.0 (Workload.Metrics.throughput m)

let test_metrics_normalize () =
  let base = metrics_with [ 1000; 1000; 1000; 1000 ] (Sim.Time.sec 1) in
  let faulty = metrics_with [ 2000; 2000 ] (Sim.Time.sec 1) in
  let tput, mean, _ = Workload.Metrics.normalize faulty ~baseline:base in
  Alcotest.(check (float 1e-9)) "tput halved" 0.5 tput;
  Alcotest.(check (float 0.1)) "latency doubled" 2.0 mean

let test_metrics_shed_and_fsyncs () =
  (* 4 completed, 1 shed: shed rate over offered load; 2 fsyncs over 4
     committed ops = 0.5 fsyncs/op (group commit amortization) *)
  let m = metrics_with ~shed:1 ~leader_fsyncs:2 [ 100; 200; 300; 400 ] (Sim.Time.sec 1) in
  Alcotest.(check (float 1e-9)) "shed rate" 0.2 (Workload.Metrics.shed_rate m);
  Alcotest.(check (float 1e-9)) "fsyncs per op" 0.5 (Workload.Metrics.fsyncs_per_op m);
  (* degenerate cases must not divide by zero *)
  let empty = metrics_with [] (Sim.Time.sec 1) in
  Alcotest.(check (float 1e-9)) "no offered load" 0.0 (Workload.Metrics.shed_rate empty);
  Alcotest.(check (float 1e-9)) "no completed ops" 0.0 (Workload.Metrics.fsyncs_per_op empty)

(* ------------------------------------------------------------------ *)
(* Driver *)

let test_driver_closed_loop () =
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"client" () in
  (* each op takes exactly 1ms: expect ~1000 ops/s per client *)
  let client =
    {
      Workload.Driver.node;
      run_op =
        (fun _ ->
          Depfast.Sched.sleep s (Sim.Time.ms 1);
          Workload.Driver.Committed);
    }
  in
  let m =
    Workload.Driver.run s ~clients:[ client; client ]
      ~workload:(Workload.Ycsb.scaled ~records:100 Workload.Ycsb.update_heavy)
      ~warmup:(Sim.Time.ms 100) ~duration:(Sim.Time.sec 1) ()
  in
  check_bool "about 2000 ops/s" true
    (Workload.Metrics.throughput m > 1900.0 && Workload.Metrics.throughput m <= 2100.0);
  check_bool "latency ~1ms" true
    (Float.abs (Workload.Metrics.mean_latency_ms m -. 1.0) < 0.05)

let test_driver_counts_failures () =
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"client" () in
  let flip = ref false in
  let client =
    {
      Workload.Driver.node;
      run_op =
        (fun _ ->
          Depfast.Sched.sleep s (Sim.Time.ms 1);
          flip := not !flip;
          if !flip then Workload.Driver.Committed else Workload.Driver.Failed);
    }
  in
  let m =
    Workload.Driver.run s ~clients:[ client ]
      ~workload:(Workload.Ycsb.scaled ~records:100 Workload.Ycsb.update_heavy)
      ~warmup:0 ~duration:(Sim.Time.ms 100) ()
  in
  check_bool "failures counted" true (m.Workload.Metrics.failed > 0);
  check_bool "successes counted" true (m.Workload.Metrics.completed > 0)

let test_driver_warmup_excluded () =
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"client" () in
  let ops = ref 0 in
  let client =
    {
      Workload.Driver.node;
      run_op =
        (fun _ ->
          incr ops;
          Depfast.Sched.sleep s (Sim.Time.ms 10);
          Workload.Driver.Committed);
    }
  in
  let m =
    Workload.Driver.run s ~clients:[ client ]
      ~workload:(Workload.Ycsb.scaled ~records:100 Workload.Ycsb.update_heavy)
      ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.ms 500) ()
  in
  (* ~100 ops issued total but only ~50 fall in the measured window *)
  check_bool "warmup excluded" true (m.Workload.Metrics.completed < !ops)

let test_driver_boundary_op_excluded () =
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"client" () in
  let first = ref true in
  let client =
    {
      Workload.Driver.node;
      run_op =
        (fun _ ->
          (* the first op starts at t=0 (during warmup) and completes at
             t=600ms, inside the measurement window; later ops take 1ms *)
          let d = if !first then Sim.Time.ms 600 else Sim.Time.ms 1 in
          first := false;
          Depfast.Sched.sleep s d;
          Workload.Driver.Committed);
    }
  in
  let m =
    Workload.Driver.run s ~clients:[ client ]
      ~workload:(Workload.Ycsb.scaled ~records:100 Workload.Ycsb.update_heavy)
      ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.ms 500) ()
  in
  check_bool "completed some" true (m.Workload.Metrics.completed > 0);
  (* the straddling op must not be recorded with its warmup-inflated
     latency: everything in the histogram is a ~1ms op *)
  check_bool "no warmup-inflated latency" true
    (Sim.Hist.max_value m.Workload.Metrics.latency < Sim.Time.ms 10)

let test_driver_shed_at_warmup_boundary () =
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"client" () in
  let first = ref true in
  let client =
    {
      Workload.Driver.node;
      run_op =
        (fun _ ->
          (* the only Shed op straddles the warmup boundary (starts at t=0,
             resolves at t=600ms inside the window): like a straddling
             commit, it must not leak into the windowed counters *)
          if !first then begin
            first := false;
            Depfast.Sched.sleep s (Sim.Time.ms 600);
            Workload.Driver.Shed
          end
          else begin
            Depfast.Sched.sleep s (Sim.Time.ms 1);
            Workload.Driver.Committed
          end);
    }
  in
  let m =
    Workload.Driver.run s ~clients:[ client ]
      ~workload:(Workload.Ycsb.scaled ~records:100 Workload.Ycsb.update_heavy)
      ~warmup:(Sim.Time.ms 500) ~duration:(Sim.Time.ms 500) ()
  in
  check_bool "completed some" true (m.Workload.Metrics.completed > 0);
  check_int "straddling shed excluded" 0 m.Workload.Metrics.shed

let test_driver_shed_counted_separately () =
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"client" () in
  let flip = ref false in
  let client =
    {
      Workload.Driver.node;
      run_op =
        (fun _ ->
          Depfast.Sched.sleep s (Sim.Time.ms 1);
          flip := not !flip;
          if !flip then Workload.Driver.Committed else Workload.Driver.Shed);
    }
  in
  let m =
    Workload.Driver.run s ~clients:[ client ]
      ~workload:(Workload.Ycsb.scaled ~records:100 Workload.Ycsb.update_heavy)
      ~warmup:0 ~duration:(Sim.Time.ms 100) ()
  in
  check_bool "shed counted" true (m.Workload.Metrics.shed > 0);
  check_bool "completed counted" true (m.Workload.Metrics.completed > 0);
  check_int "shed ops are not failures" 0 m.Workload.Metrics.failed;
  (* strict alternation: shed and completed within one of each other *)
  check_bool "alternating split" true
    (abs (m.Workload.Metrics.shed - m.Workload.Metrics.completed) <= 1);
  check_bool "shed rate about half" true
    (Float.abs (Workload.Metrics.shed_rate m -. 0.5) < 0.05)

let suite =
  [
    ( "depfast.condvar",
      [
        Alcotest.test_case "broadcast wakes all" `Quick test_condvar_broadcast_wakes_all;
        Alcotest.test_case "renews after broadcast" `Quick test_condvar_renews;
        Alcotest.test_case "timeout" `Quick test_condvar_timeout;
      ] );
    ( "depfast.mutex",
      [
        Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
        Alcotest.test_case "FIFO order" `Quick test_mutex_fifo_order;
        Alcotest.test_case "exception releases" `Quick test_mutex_exception_releases;
        Alcotest.test_case "unlock unheld raises" `Quick test_mutex_unlock_unheld_raises;
      ] );
    ( "workload.ycsb",
      [
        Alcotest.test_case "paper workload shape" `Quick test_ycsb_update_heavy_shape;
        Alcotest.test_case "ops valid" `Quick test_ycsb_ops_valid;
        Alcotest.test_case "read mix" `Quick test_ycsb_read_mix;
        Alcotest.test_case "zipfian skew" `Quick test_ycsb_zipfian_skew;
      ] );
    ( "workload.metrics",
      [
        Alcotest.test_case "throughput" `Quick test_metrics_throughput;
        Alcotest.test_case "normalization" `Quick test_metrics_normalize;
        Alcotest.test_case "shed rate and fsyncs per op" `Quick test_metrics_shed_and_fsyncs;
      ] );
    ( "workload.driver",
      [
        Alcotest.test_case "closed loop" `Quick test_driver_closed_loop;
        Alcotest.test_case "failures counted" `Quick test_driver_counts_failures;
        Alcotest.test_case "warmup excluded" `Quick test_driver_warmup_excluded;
        Alcotest.test_case "boundary op excluded" `Quick test_driver_boundary_op_excluded;
        Alcotest.test_case "shed at warmup boundary excluded" `Quick
          test_driver_shed_at_warmup_boundary;
        Alcotest.test_case "shed counted separately" `Quick
          test_driver_shed_counted_separately;
      ] );
  ]
