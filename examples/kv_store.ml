(* A replicated key-value store on DepFastRaft (§3.4).

   Boots a three-node cluster on the simulated datacenter, elects a leader,
   runs a few client sessions against it, then crashes the leader and shows
   the system re-electing and carrying on.

   Run with:  dune exec examples/kv_store.exe *)

let () =
  let engine = Sim.Engine.create ~seed:42L () in
  let sched = Depfast.Sched.create engine in
  let g = Raft.Group.create sched ~n:3 () in
  let clients = Raft.Group.make_clients g ~count:2 () in

  Depfast.Sched.spawn sched ~name:"main" (fun () ->
      (* wait for the randomized-timeout election to settle *)
      let leader =
        match Raft.Group.wait_for_leader g with
        | Some s -> s
        | None -> failwith "no leader"
      in
      Printf.printf "[%4.0f ms] s%d elected leader (term %d)\n"
        (Sim.Time.to_ms_f (Depfast.Sched.now sched))
        (Raft.Server.id leader + 1)
        (Raft.Server.term leader);

      (* two client sessions write and read *)
      let c1 = List.nth clients 0 and c2 = List.nth clients 1 in
      assert (Raft.Client.put c1 ~key:"lang" ~value:"ocaml");
      assert (Raft.Client.put c2 ~key:"paper" ~value:"depfast");
      (match Raft.Client.get c1 ~key:"paper" with
      | Some (Some v) ->
        Printf.printf "[%4.0f ms] c1 reads paper = %S (linearizable, via the log)\n"
          (Sim.Time.to_ms_f (Depfast.Sched.now sched))
          v
      | _ -> failwith "read failed");

      (* kill the leader; a follower takes over *)
      Printf.printf "[%4.0f ms] crashing the leader...\n"
        (Sim.Time.to_ms_f (Depfast.Sched.now sched));
      Cluster.Node.crash (Raft.Server.node leader);
      assert (Raft.Client.put c1 ~key:"lang" ~value:"still ocaml");
      let new_leader = Option.get (Raft.Group.leader g) in
      Printf.printf "[%4.0f ms] s%d took over (term %d); write committed after crash\n"
        (Sim.Time.to_ms_f (Depfast.Sched.now sched))
        (Raft.Server.id new_leader + 1)
        (Raft.Server.term new_leader);

      (* replicas agree on the surviving majority *)
      let survivors =
        List.filter (fun s -> Cluster.Node.alive (Raft.Server.node s)) g.Raft.Group.servers
      in
      Depfast.Sched.sleep sched (Sim.Time.ms 500);
      (match survivors with
      | a :: rest ->
        List.iter
          (fun b ->
            assert (Raft.Kv.digest (Raft.Server.kv a) = Raft.Kv.digest (Raft.Server.kv b)))
          rest
      | [] -> ());
      Printf.printf "[%4.0f ms] surviving replicas agree on the store contents\n"
        (Sim.Time.to_ms_f (Depfast.Sched.now sched)));
  Depfast.Sched.run ~until:(Sim.Time.sec 30) sched
