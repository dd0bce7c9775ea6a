(** Figure 3: DepFastRaft with a minority of fail-slow followers, 3-node and
    5-node deployments — absolute throughput / average latency / P99.

    The paper's §3.4 claim: all three metrics stay within a 5% band of the
    no-fault baseline, at a base throughput around 5K requests/second. *)

type row = {
  n : int;
  fault : Cluster.Fault.kind option;
  metrics : Workload.Metrics.t;
  drift_tput : float;  (** (value - baseline) / baseline *)
  drift_mean : float;
  drift_p99 : float;
}

let minority n = ((n + 1) / 2) - 1

let run_setup ?(params = Params.full) ~n () =
  let base =
    Runner.run_cell ~params ~system:Runner.Depfast_raft ~n ~slow_count:0
      ~fault:None ()
  in
  let base_m = base.Runner.metrics in
  let drift v b = if b = 0.0 then 0.0 else (v -. b) /. b in
  let row_of fault m =
    {
      n;
      fault;
      metrics = m;
      drift_tput =
        drift (Workload.Metrics.throughput m) (Workload.Metrics.throughput base_m);
      drift_mean =
        drift (Workload.Metrics.mean_latency_ms m) (Workload.Metrics.mean_latency_ms base_m);
      drift_p99 =
        drift (Workload.Metrics.p99_latency_ms m) (Workload.Metrics.p99_latency_ms base_m);
    }
  in
  row_of None base_m
  :: List.map
       (fun kind ->
         let cell =
           Runner.run_cell ~params ~system:Runner.Depfast_raft ~n
             ~slow_count:(minority n) ~fault:(Some kind) ()
         in
         row_of (Some kind) cell.Runner.metrics)
       Cluster.Fault.all

let run ?params () = List.concat_map (fun n -> run_setup ?params ~n ()) [ 3; 5 ]

let print_rows rows =
  Printf.printf
    "\n=== Figure 3: DepFastRaft with a minority of fail-slow followers ===\n\n";
  Printf.printf "%-8s %-20s | %9s %8s %8s | %7s %7s %7s | %5s\n" "Setup" "Fault"
    "tput/s" "avg ms" "p99 ms" "d.tput" "d.avg" "d.p99" "cpu%";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter
    (fun r ->
      Printf.printf
        "%-8s %-20s | %9.0f %8.2f %8.2f | %6.1f%% %6.1f%% %6.1f%% | %4.0f%%\n"
        (Printf.sprintf "%d nodes" r.n)
        (Runner.fault_name r.fault)
        (Workload.Metrics.throughput r.metrics)
        (Workload.Metrics.mean_latency_ms r.metrics)
        (Workload.Metrics.p99_latency_ms r.metrics)
        (100.0 *. r.drift_tput) (100.0 *. r.drift_mean) (100.0 *. r.drift_p99)
        (100.0 *. r.metrics.Workload.Metrics.leader_utilization))
    rows;
  let worst =
    List.fold_left
      (fun acc r ->
        List.fold_left max acc
          [ Float.abs r.drift_tput; Float.abs r.drift_mean; Float.abs r.drift_p99 ])
      0.0 rows
  in
  Printf.printf "\nWorst-case drift across all faults and setups: %.1f%% %s\n"
    (100.0 *. worst)
    (if worst <= 0.05 then "(within the paper's 5% band)" else "(paper's band: 5%)")

let print ?params () = print_rows (run ?params ())
