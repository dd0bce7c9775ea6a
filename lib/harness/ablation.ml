(** Ablations for the design choices DESIGN.md calls out.

    A1 — {e quorum wait vs wait-for-all}: replace DepFastRaft's majority
    arity with wait-for-everyone ([replication_arity = `All]). Under a CPU
    fail-slow follower the "all" variant degrades like the baselines,
    showing the QuorumEvent is what buys the tolerance.

    A2 — {e EntryCache size} in the TiDB-like baseline: with a cache large
    enough that nothing is evicted, the blocking disk reads disappear and
    so does most of the degradation — isolating the diagnosed root cause.

    A3 — {e framework-aware broadcast} (§2.3): with straggler discarding
    off, abandoned-call buffers for a slow follower are never released and
    the leader's outstanding-RPC memory grows; with it on, it stays flat.

    A4 — {e chain replication vs quorum replication} (§3.3's tradeoff):
    the same three nodes, the same workload, the same CPU fail-slow fault —
    but writes flow through a chain whose every link is a 1/1 wait. The
    chain collapses where the quorum barely moves, quantifying what the
    paper's SPG analysis predicts (and why §2.1 turned chained replication
    off). *)

type row = { label : string; fault : string; metrics : Workload.Metrics.t }

let quorum_vs_all ?(params = Params.full) () =
  List.concat_map
    (fun (label, arity) ->
      let cfg = { Raft.Config.default with replication_arity = arity } in
      List.map
        (fun fault ->
          let cell =
            Runner.run_cell ~cfg ~params ~system:Runner.Depfast_raft ~n:3
              ~slow_count:1 ~fault ()
          in
          {
            label;
            fault = Runner.fault_name fault;
            metrics = cell.Runner.metrics;
          })
        [ None; Some Cluster.Fault.Cpu_slow ])
    [ ("quorum (majority)", `Majority); ("wait-for-all", `All) ]

let entry_cache ?(params = Params.full) () =
  (* the TiDB-like cluster with its default (evicting) cache vs an
     effectively infinite cache *)
  List.map
    (fun (label, cache_size) ->
      let sched = Runner.sched params in
      let cluster = Baseline.Tidb_like.create sched ~n:3 ~cfg:Raft.Config.default () in
      Baseline.Tidb_like.set_cache_size cluster cache_size;
      let metrics =
        Runner.drive sched (Baseline.Tidb_like.sut cluster) ~params ~slow_count:1
          ~fault:(Some Cluster.Fault.Cpu_slow)
      in
      {
        label = Printf.sprintf "%s (%d blocking reads)" label
            (Baseline.Tidb_like.blocked_disk_reads cluster);
        fault = "CPU (slow)";
        metrics;
      })
    [ ("EntryCache 4096", 4096); ("EntryCache unbounded", max_int / 2) ]

(** Framework-level view of §2.3's broadcast optimization: a caller issues a
    stream of majority broadcasts while one replica never answers in time.
    With straggler discarding, each broadcast's stale buffers are released
    the moment its quorum is met; without it, they accumulate until (if
    ever) the slow replica replies. Returns
    [(label, peak outstanding bytes, discarded responses)]. *)
let discard_stragglers ?(params = Params.full) () =
  ignore params;
  List.map
    (fun (label, discard) ->
      let engine = Sim.Engine.create ~seed:5L () in
      let sched = Depfast.Sched.create engine in
      let rpc : (unit, unit) Cluster.Rpc.t = Cluster.Rpc.create sched () in
      Cluster.Rpc.set_discard_stragglers rpc discard;
      let caller = Cluster.Node.create sched ~id:0 ~name:"caller" () in
      Cluster.Rpc.attach rpc caller;
      List.iter
        (fun i ->
          let replica = Cluster.Node.create sched ~id:i ~name:(Printf.sprintf "r%d" i) () in
          Cluster.Rpc.serve rpc ~node:replica ~handler:(fun ~src:_ () ->
              (* replica 3 is fail-slow: each reply takes ~2 s of CPU *)
              if i = 3 then Cluster.Node.cpu_work replica (Sim.Time.sec 2);
              Some ()))
        [ 1; 2; 3 ];
      let peak = ref 0 in
      Cluster.Node.spawn caller ~name:"broadcaster" (fun () ->
          for _ = 1 to 2_000 do
            let quorum, _calls =
              Cluster.Rpc.broadcast rpc ~src:caller ~dsts:[ 1; 2; 3 ]
                ~arity:Depfast.Event.Majority ~bytes:4096 ()
            in
            Depfast.Sched.wait sched quorum;
            peak := max !peak (Cluster.Rpc.outstanding_bytes rpc ~node:0)
          done);
      Depfast.Sched.run ~until:(Sim.Time.sec 30) sched;
      (label, !peak, Cluster.Rpc.discarded_responses rpc))
    [ ("discard stragglers (DepFast)", true); ("keep stragglers", false) ]

(** Chain replication vs DepFastRaft under a fail-slow middle node. *)
let chain_vs_quorum ?(params = Params.full) () =
  (* the fault lands on the chain's middle node *)
  let run_chain fault =
    let sched = Runner.sched params in
    let cluster = Baseline.Chain.create sched ~n:3 ~cfg:Raft.Config.default () in
    Runner.drive sched (Baseline.Chain.sut cluster) ~params ~slow_count:1 ~fault
  in
  let run_quorum fault =
    (Runner.run_cell ~params ~system:Runner.Depfast_raft ~n:3 ~slow_count:1 ~fault ())
      .Runner.metrics
  in
  List.concat_map
    (fun fault ->
      [
        { label = "chain replication"; fault = Runner.fault_name fault; metrics = run_chain fault };
        { label = "quorum (DepFastRaft)"; fault = Runner.fault_name fault; metrics = run_quorum fault };
      ])
    [ None; Some Cluster.Fault.Cpu_slow ]

let print ?(params = Params.full) () =
  Printf.printf "\n=== Ablation A1: quorum wait vs wait-for-all (DepFastRaft, 3 nodes) ===\n\n";
  Printf.printf "%-20s %-15s | %9s %8s %8s\n" "Variant" "Fault" "tput/s" "avg ms" "p99 ms";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun r ->
      Printf.printf "%-20s %-15s | %9.0f %8.2f %8.2f%s\n" r.label r.fault
        (Workload.Metrics.throughput r.metrics)
        (Workload.Metrics.mean_latency_ms r.metrics)
        (Workload.Metrics.p99_latency_ms r.metrics)
        (if r.metrics.Workload.Metrics.leader_crashed then "  ** CRASH **" else ""))
    (quorum_vs_all ~params ());
  Printf.printf "\n=== Ablation A2: TiDB-like EntryCache size under a CPU-slow follower ===\n\n";
  List.iter
    (fun r ->
      Printf.printf "%-45s | %9.0f tput/s, avg %8.2f ms, p99 %8.2f ms\n" r.label
        (Workload.Metrics.throughput r.metrics)
        (Workload.Metrics.mean_latency_ms r.metrics)
        (Workload.Metrics.p99_latency_ms r.metrics))
    (entry_cache ~params ());
  Printf.printf "\n=== Ablation A3: framework-aware broadcast (discard stragglers) ===\n\n";
  Printf.printf "2000 majority broadcasts, one fail-slow replica:\n";
  List.iter
    (fun (label, peak, discarded) ->
      Printf.printf
        "%-30s | peak outstanding buffers: %9d bytes | late responses dropped: %d\n" label
        peak discarded)
    (discard_stragglers ~params ());
  Printf.printf
    "\n=== Ablation A4: chain replication vs quorum under a fail-slow node (§3.3) ===\n\n";
  Printf.printf "%-22s %-15s | %9s %8s %8s\n" "Topology" "Fault" "tput/s" "avg ms" "p99 ms";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun r ->
      Printf.printf "%-22s %-15s | %9.0f %8.2f %8.2f\n" r.label r.fault
        (Workload.Metrics.throughput r.metrics)
        (Workload.Metrics.mean_latency_ms r.metrics)
        (Workload.Metrics.p99_latency_ms r.metrics))
    (chain_vs_quorum ~params ())
