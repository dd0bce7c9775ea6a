(* Tests for the §5 extensions: the fail-slow detector + mitigation, and
   the sharded store with 2PC transactions. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* KV transactional commands (the state-machine layer of 2PC) *)

let entry i cmd : Raft.Types.entry = { term = 1; index = i; cmd; client_id = 77; seq = i }

let test_kv_prepare_commit () =
  let kv = Raft.Kv.create () in
  let r1 =
    Raft.Kv.apply kv (entry 1 (Raft.Types.Tx_prepare { txid = 1; writes = [ ("a", "1"); ("b", "2") ] }))
  in
  Alcotest.(check (option string)) "prepared" (Some "ok") r1;
  Alcotest.(check (option int)) "a locked" (Some 1) (Raft.Kv.locked kv "a");
  check_bool "not yet visible" true (Raft.Kv.get kv "a" = None);
  ignore (Raft.Kv.apply kv (entry 2 (Raft.Types.Tx_commit { txid = 1 })));
  Alcotest.(check (option string)) "a visible" (Some "1") (Raft.Kv.get kv "a");
  Alcotest.(check (option string)) "b visible" (Some "2") (Raft.Kv.get kv "b");
  Alcotest.(check (option int)) "unlocked" None (Raft.Kv.locked kv "a");
  check_int "nothing staged" 0 (Raft.Kv.staged_count kv)

let test_kv_prepare_conflict () =
  let kv = Raft.Kv.create () in
  ignore (Raft.Kv.apply kv (entry 1 (Raft.Types.Tx_prepare { txid = 1; writes = [ ("a", "1") ] })));
  let r =
    Raft.Kv.apply kv (entry 2 (Raft.Types.Tx_prepare { txid = 2; writes = [ ("a", "9"); ("c", "3") ] }))
  in
  Alcotest.(check (option string)) "conflict" (Some "conflict") r;
  Alcotest.(check (option int)) "lock held by 1" (Some 1) (Raft.Kv.locked kv "a");
  (* abort releases *)
  ignore (Raft.Kv.apply kv (entry 3 (Raft.Types.Tx_abort { txid = 1 })));
  Alcotest.(check (option int)) "released" None (Raft.Kv.locked kv "a");
  check_bool "no write happened" true (Raft.Kv.get kv "a" = None)

let test_kv_prepare_retry_idempotent () =
  let kv = Raft.Kv.create () in
  ignore (Raft.Kv.apply kv (entry 1 (Raft.Types.Tx_prepare { txid = 5; writes = [ ("k", "v") ] })));
  (* a duplicate retry (same client seq) re-answers without re-locking *)
  let r = Raft.Kv.apply kv (entry 1 (Raft.Types.Tx_prepare { txid = 5; writes = [ ("k", "v") ] })) in
  Alcotest.(check (option string)) "replay says ok" (Some "ok") r;
  check_int "staged once" 1 (Raft.Kv.staged_count kv)

(* ------------------------------------------------------------------ *)
(* Sharded store + 2PC *)

let make_store ?(seed = 3L) () =
  let engine = Sim.Engine.create ~seed () in
  let sched = Depfast.Sched.create engine in
  let store = Raft.Sharded.create sched ~shards:3 ~replicas:3 () in
  Raft.Sharded.bootstrap store;
  (sched, store)

let in_session sched store ~id body =
  let s = Raft.Sharded.session store ~id in
  let finished = ref false in
  Cluster.Node.spawn (Raft.Sharded.session_node s) ~name:"txn-test" (fun () ->
      body s;
      finished := true);
  Depfast.Sched.run ~until:(Sim.Time.add (Depfast.Sched.now sched) (Sim.Time.sec 30)) sched;
  check_bool "session finished" true !finished

let test_txn_cross_shard_commit () =
  let sched, store = make_store () in
  in_session sched store ~id:1 (fun s ->
      let writes = [ ("alpha", "1"); ("beta", "2"); ("gamma", "3") ] in
      check_bool "spans shards" true
        (List.length (List.sort_uniq compare (List.map (fun (k, _) -> Raft.Sharded.shard_of store k) writes)) > 1);
      (match Raft.Sharded.txn s ~writes with
      | Raft.Sharded.Committed -> ()
      | _ -> Alcotest.fail "txn failed");
      List.iter
        (fun (k, v) ->
          match Raft.Sharded.read s ~key:k with
          | Some (Some got) -> Alcotest.(check string) k v got
          | _ -> Alcotest.fail ("read failed for " ^ k))
        writes)

let test_txn_single_shard_fast_path () =
  let sched, store = make_store () in
  in_session sched store ~id:2 (fun s ->
      match Raft.Sharded.txn s ~writes:[ ("solo-key", "x") ] with
      | Raft.Sharded.Committed -> (
        match Raft.Sharded.read s ~key:"solo-key" with
        | Some (Some "x") -> ()
        | _ -> Alcotest.fail "read after single-shard txn")
      | _ -> Alcotest.fail "single-shard txn failed")

let test_txn_conflict_aborts_one () =
  let sched, store = make_store () in
  let s1 = Raft.Sharded.session store ~id:3 in
  let s2 = Raft.Sharded.session store ~id:4 in
  let results = ref [] in
  let racer s tag =
    Cluster.Node.spawn (Raft.Sharded.session_node s) ~name:tag (fun () ->
        let r = Raft.Sharded.txn s ~writes:[ ("hot-a", tag); ("hot-b", tag) ] in
        results := r :: !results)
  in
  racer s1 "one";
  racer s2 "two";
  Depfast.Sched.run ~until:(Sim.Time.add (Depfast.Sched.now sched) (Sim.Time.sec 30)) sched;
  check_int "both resolved" 2 (List.length !results);
  let committed = List.filter (fun r -> r = Raft.Sharded.Committed) !results in
  (* at least one commits; they cannot both have written interleaved halves *)
  check_bool "at least one committed" true (List.length committed >= 1);
  (* atomicity: both keys must carry the same writer's tag *)
  in_session sched store ~id:5 (fun s ->
      match (Raft.Sharded.read s ~key:"hot-a", Raft.Sharded.read s ~key:"hot-b") with
      | Some (Some a), Some (Some b) -> Alcotest.(check string) "atomic" a b
      | _ -> Alcotest.fail "reads failed")

let test_txn_no_leaked_locks () =
  let sched, store = make_store () in
  in_session sched store ~id:6 (fun s ->
      ignore (Raft.Sharded.txn s ~writes:[ ("l1", "x"); ("l2", "y") ]);
      ignore (Raft.Sharded.txn s ~writes:[ ("l1", "z") ]);
      (* all groups eventually hold zero staged transactions *)
      Depfast.Sched.sleep (Cluster.Node.sched (Raft.Sharded.session_node s)) (Sim.Time.sec 2);
      List.iter
        (fun g ->
          List.iter
            (fun srv -> check_int "no staged tx" 0 (Raft.Kv.staged_count (Raft.Server.kv srv)))
            g.Raft.Group.servers)
        (Raft.Sharded.groups store))

let test_txn_tolerates_fail_slow_follower () =
  let sched, store = make_store () in
  (* slow a follower in every shard: 2PC latency must stay low *)
  List.iter
    (fun g ->
      ignore (Cluster.Fault.inject (List.nth g.Raft.Group.nodes 1) Cluster.Fault.Cpu_slow))
    (Raft.Sharded.groups store);
  in_session sched store ~id:7 (fun s ->
      let t0 = Depfast.Sched.now (Cluster.Node.sched (Raft.Sharded.session_node s)) in
      (match Raft.Sharded.txn s ~writes:[ ("fa", "1"); ("fb", "2"); ("fc", "3") ] with
      | Raft.Sharded.Committed -> ()
      | _ -> Alcotest.fail "txn under fault");
      let elapsed =
        Sim.Time.diff (Depfast.Sched.now (Cluster.Node.sched (Raft.Sharded.session_node s))) t0
      in
      check_bool "fast despite slow followers" true (elapsed < Sim.Time.ms 200))

(* Bootstrap elects node [s * replicas] in shard [s] and says so when it
   could not: shard 1's first node is down, so its group cannot elect it *)
let test_bootstrap_fails_loudly () =
  let engine = Sim.Engine.create ~seed:3L () in
  let sched = Depfast.Sched.create engine in
  let store = Raft.Sharded.create sched ~shards:3 ~replicas:3 () in
  Cluster.Node.crash (List.hd (List.nth (Raft.Sharded.groups store) 1).Raft.Group.nodes);
  match Raft.Sharded.bootstrap store with
  | () -> Alcotest.fail "bootstrap returned with shard 1's first node down"
  | exception Failure msg ->
    Alcotest.(check string) "names the shard" "Sharded.bootstrap: shard 1 did not elect node 3" msg

let owner_group store key = List.nth (Raft.Sharded.groups store) (Raft.Sharded.shard_of store key)

(* A single-shard transaction on a key another transaction's prepare holds
   aborts, as a multi-shard one does, and leaves that lock alone *)
let test_single_shard_conflict_aborts () =
  let sched, store = make_store () in
  let g = owner_group store "held" in
  (* the owning group's own client, outside any session *)
  let holder = List.hd (Raft.Group.make_clients g ~count:1 ~first_node_id:500 ()) in
  let took = ref None in
  Cluster.Node.spawn (Raft.Client.node holder) ~name:"holder" (fun () ->
      took :=
        Some
          (Raft.Client.command holder
             (Raft.Types.Tx_prepare { txid = 777; writes = [ ("held", "theirs") ] })));
  Depfast.Sched.run ~until:(Sim.Time.add (Depfast.Sched.now sched) (Sim.Time.sec 1)) sched;
  check_bool "the other prepare holds the key" true (!took = Some (Some (Some "ok")));
  in_session sched store ~id:8 (fun s ->
      match Raft.Sharded.txn s ~writes:[ ("held", "mine") ] with
      | Raft.Sharded.Aborted -> ()
      | Raft.Sharded.Committed -> Alcotest.fail "committed over a held lock"
      | Raft.Sharded.Failed -> Alcotest.fail "a lock conflict reported as Failed");
  List.iter
    (fun srv -> check_int "the holder's prepare stays staged" 1 (Raft.Kv.staged_count (Raft.Server.kv srv)))
    g.Raft.Group.servers

(* A prepare applied on the shard whose reply never arrives: the session is
   cut off from the shard from the moment the leader stages it, so every
   retry is lost too. The transaction fails, and its abort, let through
   from its second attempt on, releases the staged writes on every
   replica. Drops are counted on the shard's network: the prepare's reply
   and its seven retries, then the abort's first attempt *)
let test_single_shard_lost_reply_aborts () =
  let sched, store = make_store () in
  let key = "lost" in
  let g = owner_group store key in
  let s = Raft.Sharded.session store ~id:9 in
  let me = Cluster.Node.id (Raft.Sharded.session_node s) in
  let servers = List.map Raft.Server.id g.Raft.Group.servers in
  let staged () =
    List.fold_left (fun a srv -> a + Raft.Kv.staged_count (Raft.Server.kv srv)) 0 g.Raft.Group.servers
  in
  let dropped () = (Cluster.Rpc.net_totals g.Raft.Group.rpc).Cluster.Net.dropped in
  let outcome = ref None in
  Cluster.Node.spawn (Raft.Sharded.session_node s) ~name:"txn" (fun () ->
      outcome := Some (Raft.Sharded.txn s ~writes:[ (key, "v") ]));
  Depfast.Sched.spawn sched ~name:"cutter" (fun () ->
      while staged () = 0 do
        Depfast.Sched.sleep sched (Sim.Time.us 10)
      done;
      List.iter (fun id -> Cluster.Rpc.partition g.Raft.Group.rpc me id) servers;
      let d0 = dropped () in
      while dropped () - d0 < 9 do
        Depfast.Sched.sleep sched (Sim.Time.ms 1)
      done;
      List.iter (fun id -> Cluster.Rpc.heal g.Raft.Group.rpc me id) servers);
  Depfast.Sched.run ~until:(Sim.Time.add (Depfast.Sched.now sched) (Sim.Time.sec 60)) sched;
  check_bool "no reply: failed" true (!outcome = Some Raft.Sharded.Failed);
  check_int "the abort released every replica's staged writes" 0 (staged ())

(* ------------------------------------------------------------------ *)
(* Detector + mitigation *)

let test_detector_ignores_healthy_leader () =
  let engine = Sim.Engine.create ~seed:11L () in
  let sched = Depfast.Sched.create engine in
  let g = Raft.Group.create sched ~n:3 () in
  Depfast.Sched.spawn sched ~name:"bootstrap" (fun () -> Raft.Group.elect g 0);
  Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
  let d = Raft.Detector.attach (Raft.Group.server g 0) in
  let clients = Raft.Group.make_clients g ~count:8 () in
  List.iter
    (fun c ->
      Cluster.Node.spawn (Raft.Client.node c) ~name:"load" (fun () ->
          for i = 1 to 200 do
            ignore (Raft.Client.put c ~key:(string_of_int (i mod 10)) ~value:"v")
          done))
    clients;
  Depfast.Sched.run ~until:(Sim.Time.sec 10) sched;
  check_int "no mitigation" 0 (Raft.Detector.mitigations d);
  check_bool "leader kept" true (Raft.Server.is_leader (Raft.Group.server g 0));
  check_bool "baseline learned" true (Raft.Detector.baseline d > 0.0)

let test_detector_mitigates_fail_slow_leader () =
  let engine = Sim.Engine.create ~seed:11L () in
  let sched = Depfast.Sched.create engine in
  let g = Raft.Group.create sched ~n:3 () in
  Depfast.Sched.spawn sched ~name:"bootstrap" (fun () -> Raft.Group.elect g 0);
  Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
  let detectors = List.map (fun s -> Raft.Detector.attach s) g.Raft.Group.servers in
  let clients = Raft.Group.make_clients g ~count:16 () in
  List.iter
    (fun c ->
      Cluster.Node.spawn (Raft.Client.node c) ~name:"load" (fun () ->
          let rec go i =
            if Depfast.Sched.now sched < Sim.Time.sec 18 then begin
              ignore (Raft.Client.put c ~key:(string_of_int (i mod 10)) ~value:"v");
              go (i + 1)
            end
          in
          go 0))
    clients;
  Depfast.Sched.run ~until:(Sim.Time.sec 4) sched;
  ignore (Cluster.Fault.inject (Raft.Server.node (Raft.Group.server g 0)) Cluster.Fault.Cpu_slow);
  Depfast.Sched.run ~until:(Sim.Time.sec 20) sched;
  let total = List.fold_left (fun a d -> a + Raft.Detector.mitigations d) 0 detectors in
  check_bool "mitigated" true (total >= 1);
  (match Raft.Group.leader g with
  | Some s -> check_bool "leadership moved off the slow node" true (Raft.Server.id s <> 0)
  | None -> Alcotest.fail "no leader after mitigation");
  check_bool "old leader is follower now" false
    (Raft.Server.is_leader (Raft.Group.server g 0))

(* ------------------------------------------------------------------ *)
(* Spg.audit ~allow: the Figure-2 exemption — a client waits on the one
   leader it is talking to, which the audit flags unless the waiter is
   explicitly allowed *)

let test_audit_allow_exempts_client () =
  let engine = Sim.Engine.create ~seed:11L () in
  let trace = Depfast.Trace.create () in
  let sched = Depfast.Sched.create ~trace engine in
  let client_node = 9 and leader = 0 in
  Depfast.Trace.enable trace;
  Depfast.Sched.spawn sched ~node:client_node ~name:"client" (fun () ->
      let reply = Depfast.Event.rpc_completion ~label:"client->leader" ~peer:leader () in
      ignore
        (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 2) (fun () ->
             Depfast.Event.fire reply));
      (* depfast-lint: allow red-exposure — the wait under test *)
      Depfast.Sched.wait sched reply);
  Depfast.Sched.run ~until:(Sim.Time.ms 10) sched;
  (match Depfast.Spg.audit trace with
  | [ v ] ->
    check_int "stalling peer is the leader" leader v.Depfast.Spg.v_peer;
    check_int "waiter is the client" client_node v.Depfast.Spg.v_wait.Depfast.Trace.node
  | vs -> Alcotest.failf "expected one violation without ~allow, got %d" (List.length vs));
  check_bool "not tolerant without the exemption" false
    (Depfast.Spg.is_fail_slow_tolerant trace);
  let allow ~node = node = client_node in
  check_int "client exempted" 0 (List.length (Depfast.Spg.audit ~allow trace));
  check_bool "tolerant under the Figure-2 exemption" true
    (Depfast.Spg.is_fail_slow_tolerant ~allow trace)

let test_audit_allow_is_per_waiter () =
  (* the exemption is keyed on the waiter: allowing some other node must
     not silence the client's red wait *)
  let engine = Sim.Engine.create ~seed:12L () in
  let trace = Depfast.Trace.create () in
  let sched = Depfast.Sched.create ~trace engine in
  Depfast.Trace.enable trace;
  Depfast.Sched.spawn sched ~node:9 ~name:"client" (fun () ->
      let reply = Depfast.Event.rpc_completion ~peer:0 () in
      ignore
        (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 2) (fun () ->
             Depfast.Event.fire reply));
      (* depfast-lint: allow red-exposure — the wait under test *)
      Depfast.Sched.wait sched reply);
  Depfast.Sched.run ~until:(Sim.Time.ms 10) sched;
  check_int "allowing a different node changes nothing" 1
    (List.length (Depfast.Spg.audit ~allow:(fun ~node -> node = 3) trace))

let suite =
  [
    ( "kv.transactions",
      [
        Alcotest.test_case "prepare/commit" `Quick test_kv_prepare_commit;
        Alcotest.test_case "prepare conflict" `Quick test_kv_prepare_conflict;
        Alcotest.test_case "retry idempotent" `Quick test_kv_prepare_retry_idempotent;
      ] );
    ( "sharded.2pc",
      [
        Alcotest.test_case "cross-shard commit" `Quick test_txn_cross_shard_commit;
        Alcotest.test_case "single-shard fast path" `Quick test_txn_single_shard_fast_path;
        Alcotest.test_case "conflict atomicity" `Quick test_txn_conflict_aborts_one;
        Alcotest.test_case "no leaked locks" `Quick test_txn_no_leaked_locks;
        Alcotest.test_case "tolerates fail-slow followers" `Quick
          test_txn_tolerates_fail_slow_follower;
        Alcotest.test_case "bootstrap fails when a shard's first node cannot win" `Quick
          test_bootstrap_fails_loudly;
        Alcotest.test_case "single-shard conflict aborts" `Quick test_single_shard_conflict_aborts;
        Alcotest.test_case "single-shard lost reply aborts" `Quick
          test_single_shard_lost_reply_aborts;
      ] );
    ( "detector",
      [
        Alcotest.test_case "healthy leader untouched" `Quick test_detector_ignores_healthy_leader;
        Alcotest.test_case "fail-slow leader mitigated" `Slow
          test_detector_mitigates_fail_slow_leader;
      ] );
    ( "spg.allow",
      [
        Alcotest.test_case "client exemption (Figure 2)" `Quick test_audit_allow_exempts_client;
        Alcotest.test_case "exemption is per waiter" `Quick test_audit_allow_is_per_waiter;
      ] );
  ]
