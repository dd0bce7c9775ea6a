(** Figure 1: performance of the three baseline RSM implementations with a
    fail-slow follower (three-node deployments), normalized to each system's
    own no-fault baseline.

    The paper reports: 17–41% throughput drops, 21–50% average-latency
    increases, 1.6–3.46x P99 increases, and RethinkDB leader crashes under
    CPU fail-slow faults. *)

type row = {
  system : Runner.system;
  fault : Cluster.Fault.kind option;
  throughput_norm : float;  (** relative to the system's no-fault cell *)
  mean_latency_norm : float;
  p99_latency_norm : float;
  crashed : bool;  (** leader made no progress during the window *)
  raw : Workload.Metrics.t;
}

let run ?(params = Params.full) () =
  List.concat_map
    (fun system ->
      let base =
        Runner.run_cell ~params ~system ~n:3 ~slow_count:1 ~fault:None ()
      in
      let base_m = base.Runner.metrics in
      let no_fault_row =
        {
          system;
          fault = None;
          throughput_norm = 1.0;
          mean_latency_norm = 1.0;
          p99_latency_norm = 1.0;
          crashed = base_m.Workload.Metrics.leader_crashed;
          raw = base_m;
        }
      in
      no_fault_row
      :: List.map
           (fun kind ->
             let cell =
               Runner.run_cell ~params ~system ~n:3 ~slow_count:1 ~fault:(Some kind) ()
             in
             let m = cell.Runner.metrics in
             let tput, mean, p99 = Workload.Metrics.normalize m ~baseline:base_m in
             {
               system;
               fault = Some kind;
               throughput_norm = tput;
               mean_latency_norm = mean;
               p99_latency_norm = p99;
               crashed = m.Workload.Metrics.leader_crashed;
               raw = m;
             })
           Cluster.Fault.all)
    Runner.baseline_systems

let print_rows rows =
  Printf.printf
    "\n=== Figure 1: baseline RSMs, 3 nodes, one fail-slow follower (normalized) ===\n\n";
  Printf.printf "%-15s %-20s | %10s %10s %10s | %9s %8s %8s\n" "System" "Fault"
    "tput(norm)" "avg(norm)" "p99(norm)" "tput/s" "avg ms" "p99 ms";
  Printf.printf "%s\n" (String.make 105 '-');
  List.iter
    (fun r ->
      Printf.printf "%-15s %-20s | %10.2f %10.2f %10.2f | %9.0f %8.2f %8.2f%s\n"
        (Runner.system_name r.system)
        (Runner.fault_name r.fault) r.throughput_norm r.mean_latency_norm
        r.p99_latency_norm
        (Workload.Metrics.throughput r.raw)
        (Workload.Metrics.mean_latency_ms r.raw)
        (Workload.Metrics.p99_latency_ms r.raw)
        (if r.crashed then "  ** LEADER CRASHED **" else ""))
    rows

let print ?params () = print_rows (run ?params ())
