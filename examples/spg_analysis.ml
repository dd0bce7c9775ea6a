(* Runtime verification: slowness propagation graphs and the fail-slow
   audit (§3.3, Figure 2).

   Builds a single Raft group, records every wait the system performs while
   serving client writes, and then:
   - renders the node-level SPG (green quorum edges, red single-event
     edges),
   - runs the audit that mechanises the paper's definition of fail-slow
     fault-tolerant code: no wait may give a single remote node the power
     to stall the waiter (clients are exempt — by design they wait on the
     leader, the red edges of Figure 2).

   Run with:  dune exec examples/spg_analysis.exe *)

let () =
  let engine = Sim.Engine.create ~seed:5L () in
  let trace = Depfast.Trace.create () in
  let sched = Depfast.Sched.create ~trace engine in
  let cfg = { Raft.Config.default with enable_hiccups = false } in
  let g = Raft.Group.create sched ~n:3 ~cfg () in
  Depfast.Sched.spawn sched ~name:"bootstrap" (fun () -> Raft.Group.elect g 0);
  Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
  let clients = Raft.Group.make_clients g ~count:2 () in

  (* trace only the steady state *)
  Depfast.Trace.enable trace;
  List.iteri
    (fun i c ->
      Cluster.Node.spawn (Raft.Client.node c) ~name:"client" (fun () ->
          for k = 1 to 40 do
            ignore (Raft.Client.put c ~key:(Printf.sprintf "k%d-%d" i k) ~value:"v")
          done))
    clients;
  Depfast.Sched.run ~until:(Sim.Time.sec 4) sched;
  Depfast.Trace.disable trace;

  Printf.printf "recorded %d waits\n\n" (Depfast.Trace.wait_count trace);

  let names id = if id >= 3 then Printf.sprintf "c%d" (id - 2) else Printf.sprintf "s%d" (id + 1) in
  let spg = Depfast.Spg.of_trace trace in
  Printf.printf "slowness propagation graph (node level):\n";
  Depfast.Spg.pp ~node_name:names Format.std_formatter spg;
  Format.pp_print_flush Format.std_formatter ();

  let is_client ~node = node >= 3 in
  let violations = Depfast.Spg.audit ~allow:is_client trace in
  Printf.printf "\nfail-slow audit (clients exempted): %s\n"
    (if violations = [] then "PASS - replication path uses only quorum waits"
     else Printf.sprintf "FAIL - %d single-point waits" (List.length violations));

  (* show what the audit would catch: a deliberate single wait on a peer *)
  Depfast.Trace.clear trace;
  Depfast.Trace.enable trace;
  Depfast.Sched.spawn sched ~node:0 ~name:"bad-code" (fun () ->
      let ev = Depfast.Event.rpc_completion ~label:"lone-rpc" ~peer:1 () in
      ignore (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 5) (fun () -> Depfast.Event.fire ev));
      (* depfast-lint: allow red-exposure — this red
         wait exists so the runtime audit below has something to flag *)
      Depfast.Sched.wait sched ev);
  Depfast.Sched.run ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 50)) sched;
  let bad = Depfast.Spg.audit ~allow:is_client trace in
  Printf.printf
    "\nafter adding one single-event wait on a peer, the audit reports %d violation(s):\n"
    (List.length bad);
  List.iter
    (fun v ->
      Printf.printf "  %s waits 1/1 on %s (event %S)\n"
        (names v.Depfast.Spg.v_wait.Depfast.Trace.node)
        (names v.Depfast.Spg.v_peer)
        (Depfast.Trace.event_label v.Depfast.Spg.v_wait))
    bad
