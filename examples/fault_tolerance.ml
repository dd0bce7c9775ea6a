(* Fail-slow fault injection against DepFastRaft (the paper's §3.4 claim,
   in miniature).

   Runs a short closed-loop write workload against a three-node cluster
   four times: healthy, with a CPU fail-slow follower (the cgroup "5% CPU"
   fault), with a 400 ms NIC delay on a follower (`tc netem`) and with a
   throttled follower disk. The throughput and latency barely move —
   compare with what the same faults do to the baseline implementations
   in `bench/main.exe fig1`.

   Run with:  dune exec examples/fault_tolerance.exe *)

let () =
  Printf.printf "%-28s | %9s %9s %9s\n" "Scenario" "tput/s" "avg ms" "p99 ms";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun (label, fault) ->
      (* the fault, if any, lands on node 1, the first follower *)
      let m =
        (Harness.Runner.run_cell ~params:Harness.Params.quick
           ~system:Harness.Runner.Depfast_raft ~n:3 ~slow_count:1 ~fault ())
          .Harness.Runner.metrics
      in
      Printf.printf "%-28s | %9.0f %9.2f %9.2f\n" label
        (Workload.Metrics.throughput m)
        (Workload.Metrics.mean_latency_ms m)
        (Workload.Metrics.p99_latency_ms m))
    [
      ("healthy", None);
      ("follower CPU limited to 5%", Some Cluster.Fault.Cpu_slow);
      ("follower NIC +400ms (tc)", Some Cluster.Fault.Net_slow);
      ("follower disk throttled", Some Cluster.Fault.Disk_slow);
    ];
  Printf.printf
    "\nA minority fail-slow follower has no seat in the majority QuorumEvent:\n\
     the leader commits with its WAL plus the healthy follower's progress.\n"
