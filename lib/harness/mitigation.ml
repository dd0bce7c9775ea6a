(** §5 extension: fail-slow leader detection + mitigation via leadership
    transfer.

    A CPU fail-slow fault is injected into the {e leader} mid-run. Without
    mitigation, every request suffers (the known algorithmic weakness of
    leader-based consensus — cf. Copilot). With the detector attached, the
    commit-latency trace signal crosses the threshold, leadership transfers
    to a healthy follower, and throughput recovers; the fail-slow node keeps
    serving as a follower, which DepFastRaft tolerates. *)

type phase = { label : string; metrics : Workload.Metrics.t }

type result = {
  variant : string;
  phases : phase list;  (** before / during+after fault *)
  mitigated : int;  (** leadership transfers triggered *)
}

let run_variant ?(params = Params.full) ~with_detector () =
  let sched = Runner.sched params in
  let g = Runner.bootstrap sched ~n:3 ~cfg:Raft.Config.default in
  let detectors =
    if with_detector then List.map (fun s -> Raft.Detector.attach s) g.Raft.Group.servers
    else []
  in
  let leader_node = Raft.Server.node (Raft.Group.server g 0) in
  let clients = Runner.clients_of_group g ~count:params.Params.clients in
  (* phase 1: healthy *)
  let healthy =
    Workload.Driver.run sched ~clients ~workload:(Params.workload params)
      ~warmup:params.Params.warmup ~duration:params.Params.duration ~leader_node ()
  in
  (* inject the fault into the CURRENT leader *)
  ignore (Cluster.Fault.inject leader_node Cluster.Fault.Cpu_slow);
  let faulty =
    Workload.Driver.run sched ~clients ~workload:(Params.workload params)
      ~warmup:(Sim.Time.ms 200) ~duration:params.Params.duration ~leader_node ()
  in
  let mitigated = List.fold_left (fun acc d -> acc + Raft.Detector.mitigations d) 0 detectors in
  {
    variant = (if with_detector then "with detector + transfer" else "no mitigation");
    phases = [ { label = "healthy"; metrics = healthy }; { label = "leader fail-slow"; metrics = faulty } ];
    mitigated;
  }

let run ?params () =
  [ run_variant ?params ~with_detector:false (); run_variant ?params ~with_detector:true () ]

let print ?params () =
  Printf.printf
    "\n=== Mitigation (§5): fail-slow LEADER, detector + leadership transfer ===\n\n";
  List.iter
    (fun r ->
      Printf.printf "%s:\n" r.variant;
      List.iter
        (fun p ->
          Printf.printf "  %-18s %9.0f tput/s, avg %8.2f ms, p99 %8.2f ms\n" p.label
            (Workload.Metrics.throughput p.metrics)
            (Workload.Metrics.mean_latency_ms p.metrics)
            (Workload.Metrics.p99_latency_ms p.metrics))
        r.phases;
      if r.mitigated > 0 then
        Printf.printf "  leadership transfers: %d\n" r.mitigated;
      Printf.printf "\n")
    (run ?params ())
