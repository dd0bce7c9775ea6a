(** Figure 2: the slowness propagation graph of a three-shard DepFastRaft
    deployment (servers s1–s9 in three quorums, clients c1–c3).

    Expected shape, as in the paper: {e green} majority-arity edges between
    the members of each quorum (no single-event waits inside groups), and
    {e red} 1/1 edges from each client to the leader it talks to. *)

type result = {
  spg : Depfast.Spg.t;
  dot : string;
  edges : Depfast.Spg.edge list;
  violations : Depfast.Spg.violation list;  (** with clients exempted *)
  intra_group_tolerant : bool;
  names : int -> string;
}

let run () =
  let engine = Sim.Engine.create ~seed:21L () in
  let trace = Depfast.Trace.create () in
  let sched = Depfast.Sched.create ~trace engine in
  let cfg = { Raft.Config.default with enable_hiccups = false } in
  (* three independent raft groups: s1-s3, s4-s6, s7-s9 (node ids 0-8) *)
  let store = Raft.Sharded.create sched ~shards:3 ~replicas:3 ~cfg () in
  Raft.Sharded.bootstrap store;
  let groups = Raft.Sharded.groups store in
  (* one client per shard (node ids 100-102 -> c1-c3) *)
  let clients =
    List.mapi
      (fun shard g -> List.hd (Raft.Group.make_clients g ~count:1 ~first_node_id:(100 + shard) ()))
      groups
  in
  (* record traces while the clients issue writes *)
  Depfast.Trace.enable trace;
  List.iteri
    (fun i c ->
      Cluster.Node.spawn (Raft.Client.node c) ~name:"fig2-client" (fun () ->
          for k = 1 to 50 do
            ignore
              (Raft.Client.put c
                 ~key:(Printf.sprintf "shard%d-key%d" i k)
                 ~value:"v")
          done))
    clients;
  Depfast.Sched.run ~until:(Sim.Time.sec 4) sched;
  Depfast.Trace.disable trace;
  let names id =
    if id >= 100 then Printf.sprintf "c%d" (id - 99) else Printf.sprintf "s%d" (id + 1)
  in
  let spg = Depfast.Spg.of_trace trace in
  let is_client ~node = node >= 100 in
  {
    spg;
    dot = Depfast.Spg.to_dot ~node_name:names spg;
    edges = Depfast.Spg.edges spg;
    violations = Depfast.Spg.audit ~allow:is_client trace;
    intra_group_tolerant = Depfast.Spg.is_fail_slow_tolerant ~allow:is_client trace;
    names;
  }

let print () =
  let r = run () in
  Printf.printf
    "\n=== Figure 2: slowness propagation graph (3-shard DepFastRaft, s1-s9, c1-c3) ===\n\n";
  Depfast.Spg.pp ~node_name:r.names Format.std_formatter r.spg;
  Format.pp_print_flush Format.std_formatter ();
  Printf.printf "\nFail-slow audit (clients exempted): %s\n"
    (if r.intra_group_tolerant then
       "PASS - no single-event waits inside the replication quorums"
     else Printf.sprintf "FAIL - %d violating waits" (List.length r.violations));
  Printf.printf "\nGraphviz:\n%s\n" r.dot
