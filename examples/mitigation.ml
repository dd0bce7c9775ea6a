(* §5 future work, implemented: detect a fail-slow LEADER from the
   commit-latency trace signal and mitigate by transferring leadership —
   "turn the fail-slow leader into a fail-slow follower, which is well
   tolerated".

   Run with:  dune exec examples/mitigation.exe *)

let () =
  let engine = Sim.Engine.create ~seed:11L () in
  let sched = Depfast.Sched.create engine in
  let g = Raft.Group.create sched ~n:3 () in
  Depfast.Sched.spawn sched ~name:"bootstrap" (fun () -> Raft.Group.elect g 0);
  Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
  let detectors = List.map (fun s -> Raft.Detector.attach s) g.Raft.Group.servers in

  (* light closed-loop load so the detector has a commit-latency signal *)
  let clients = Raft.Group.make_clients g ~count:32 () in
  List.iter
    (fun c ->
      Cluster.Node.spawn (Raft.Client.node c) ~name:"load" (fun () ->
          let rec go i =
            if Raft.Client.put c ~key:(Printf.sprintf "k%d" (i mod 50)) ~value:"v" then ();
            go (i + 1)
          in
          go 0))
    clients;
  Depfast.Sched.run ~until:(Sim.Time.sec 4) sched;

  let show () =
    match Raft.Group.leader g with
    | Some s ->
      Printf.printf "[%5.0f ms] leader = s%d (term %d), commit latency ewma = %.2f ms\n"
        (Sim.Time.to_ms_f (Sim.Engine.now engine))
        (Raft.Server.id s + 1) (Raft.Server.term s)
        (Raft.Server.commit_latency_ewma s /. 1000.0)
    | None -> Printf.printf "[%5.0f ms] no leader\n" (Sim.Time.to_ms_f (Sim.Engine.now engine))
  in
  show ();

  (* the LEADER fails slow: cgroup-style 5% CPU *)
  Printf.printf "\ninjecting CPU (slow) into the leader...\n";
  ignore (Cluster.Fault.inject (Raft.Server.node (Raft.Group.server g 0)) Cluster.Fault.Cpu_slow);
  Depfast.Sched.run ~until:(Sim.Time.sec 10) sched;
  show ();

  let total = List.fold_left (fun a d -> a + Raft.Detector.mitigations d) 0 detectors in
  Printf.printf "\nleadership transfers triggered by the detector: %d\n" total;
  (match Raft.Group.leader g with
  | Some s when Raft.Server.id s <> 0 ->
    Printf.printf
      "the fail-slow node s1 is now a follower; the majority QuorumEvent masks it.\n"
  | _ -> Printf.printf "mitigation did not complete (unexpected)\n")
