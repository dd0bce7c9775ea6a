(* The scenario registry: the closed worlds `depfast_check` explores.

   Core scenarios (condvar/mutex/signal/quorum stress) put every coroutine
   on one node: they exercise genuinely shared state, so the footprint
   heuristic must not prune — same-node transitions always conflict, which
   forces full enumeration. The Raft scenarios are share-nothing
   message-passing: cross-node effects travel only through Link-tagged
   deliveries, where persistent-set pruning is sound and earns its keep. *)

open Scenario

let reg_file = "lib/check/registry.ml"
let fixtures_file = "lib/check/fixtures.ml"
let fixture_spg_file = "lib/check/fixture_spg.ml"

let core_provenance name =
  if String.starts_with ~prefix:"fx." name then Some fixtures_file
  else if String.starts_with ~prefix:"sg." name then Some fixture_spg_file
  else if
    List.exists
      (fun prefix -> String.starts_with ~prefix name)
      [ "ys."; "mx."; "cv."; "sig."; "qr."; "drv." ]
  then Some reg_file
  else None

let raft_provenance name =
  if String.starts_with ~prefix:"raft." name then Some "lib/raft/server.ml"
  else if String.starts_with ~prefix:"rpc." name then Some "lib/cluster/rpc.ml"
  else if String.starts_with ~prefix:"client" name then Some "lib/raft/client.ml"
  else if String.starts_with ~prefix:"drv." name then Some reg_file
  else None

(* ---------- core runtime scenarios (exhaustive) ---------- *)

let yield_storm =
  {
    name = "yield-storm";
    descr = "three coroutines interleave three yields each; pure scheduler choice";
    (* 12 steps over 3 equal coroutines: more interleavings than the
       default budget — intentionally a truncation workout *)
    gating = true;
    modules = [ reg_file ];
    par_safe = true;
    default_schedules = 7000;
    fault = None;
    allow = allow_none;
    provenance = core_provenance;
    make =
      (fun _san sched () ->
        let steps = ref 0 in
        List.iter
          (fun name ->
            Depfast.Sched.spawn sched ~node:0 ~name (fun () ->
                for _ = 1 to 3 do
                  Depfast.Sched.yield sched;
                  incr steps
                done))
          [ "ys.worker1"; "ys.worker2"; "ys.worker3" ];
        {
          until = None;
          check =
            (fun () ->
              if !steps = 9 then []
              else [ Printf.sprintf "expected 9 increments, got %d" !steps ]);
        });
  }

let mutex_handoff =
  {
    name = "mutex-handoff";
    descr = "three coroutines contend on one mutex, suspending inside the section";
    gating = true;
    modules = [ reg_file; "lib/core/mutex.ml" ];
    par_safe = true;
    default_schedules = 2500;
    fault = None;
    allow = allow_none;
    provenance = core_provenance;
    make =
      (fun _san sched () ->
        let mu = Depfast.Mutex.create ~label:"mx.mu" () in
        let in_section = ref false in
        let overlapped = ref false in
        let finished = ref 0 in
        List.iter
          (fun name ->
            Depfast.Sched.spawn sched ~node:0 ~name (fun () ->
                Depfast.Mutex.with_lock sched mu (fun () ->
                    if !in_section then overlapped := true;
                    in_section := true;
                    Depfast.Sched.yield sched;
                    in_section := false);
                incr finished))
          [ "mx.worker1"; "mx.worker2"; "mx.worker3" ];
        {
          until = None;
          check =
            (fun () ->
              (if !overlapped then [ "two coroutines inside the critical section" ]
               else [])
              @ (if !finished = 3 then []
                 else [ Printf.sprintf "expected 3 sections, got %d" !finished ])
              @
              if Depfast.Mutex.locked mu then [ "mutex still held at the end" ] else []);
        });
  }

let condvar_handshake =
  {
    name = "condvar-handshake";
    descr = "two consumers wait for a flag under a mutex; producer broadcasts";
    gating = true;
    modules = [ reg_file; "lib/core/condvar.ml"; "lib/core/mutex.ml" ];
    par_safe = true;
    default_schedules = 2500;
    fault = None;
    allow = allow_none;
    provenance = core_provenance;
    make =
      (fun _san sched () ->
        let mu = Depfast.Mutex.create ~label:"cv.mu" () in
        let cv = Depfast.Condvar.create ~label:"cv.cond" () in
        let flag = ref false in
        let seen = ref 0 in
        List.iter
          (fun name ->
            Depfast.Sched.spawn sched ~node:0 ~name (fun () ->
                Depfast.Mutex.lock sched mu;
                while not !flag do
                  (* capture the generation *before* unlocking: a broadcast
                     landing between unlock and wait then finds the captured
                     event already fired — no lost wakeup *)
                  let gen = Depfast.Condvar.event cv in
                  Depfast.Mutex.unlock mu;
                  Depfast.Sched.wait sched gen;
                  Depfast.Mutex.lock sched mu
                done;
                incr seen;
                Depfast.Mutex.unlock mu))
          [ "cv.consumer1"; "cv.consumer2" ];
        Depfast.Sched.spawn sched ~node:0 ~name:"cv.producer" (fun () ->
            Depfast.Sched.yield sched;
            Depfast.Mutex.lock sched mu;
            flag := true;
            Depfast.Condvar.broadcast cv;
            Depfast.Mutex.unlock mu);
        {
          until = None;
          check =
            (fun () ->
              if !seen = 2 then []
              else [ Printf.sprintf "expected 2 consumers past the flag, got %d" !seen ]);
        });
  }

let signal_fanout =
  {
    name = "signal-fanout";
    descr = "two bounded waiters on one signal; firer races the parks";
    gating = true;
    modules = [ reg_file; "lib/core/sched.ml" ];
    par_safe = true;
    default_schedules = 1000;
    fault = None;
    allow = allow_none;
    provenance = core_provenance;
    make =
      (fun _san sched () ->
        let ev = Depfast.Event.signal ~label:"sig.go" () in
        let ready = ref 0 in
        let timed_out = ref 0 in
        List.iter
          (fun name ->
            Depfast.Sched.spawn sched ~node:0 ~name (fun () ->
                match Depfast.Sched.wait_timeout sched ev (Sim.Time.ms 500) with
                | Depfast.Sched.Ready -> incr ready
                | Depfast.Sched.Timed_out -> incr timed_out))
          [ "sig.waiter1"; "sig.waiter2" ];
        Depfast.Sched.spawn sched ~node:0 ~name:"sig.firer" (fun () ->
            Depfast.Sched.yield sched;
            Depfast.Event.fire ev);
        {
          until = None;
          check =
            (fun () ->
              (* the firer is always runnable before virtual time can
                 advance to the timeout, so every waiter must wake Ready *)
              if !ready = 2 && !timed_out = 0 then []
              else
                [
                  Printf.sprintf "expected 2 ready waiters, got %d ready / %d timed out"
                    !ready !timed_out;
                ]);
        });
  }

let quorum_majority =
  {
    name = "quorum-majority";
    descr = "correctly-wired majority quorum over three racing responders";
    gating = true;
    modules = [ reg_file; "lib/core/event.ml" ];
    par_safe = true;
    default_schedules = 2500;
    fault = None;
    allow = allow_none;
    provenance = core_provenance;
    make =
      (fun _san sched () ->
        let replies =
          List.map (fun peer -> Depfast.Event.rpc_completion ~label:"qr.reply" ~peer ())
            [ 1; 2; 3 ]
        in
        let completed = ref false in
        (* wire the quorum before the engine runs: [Majority] re-evaluates
           its threshold on every [add], so adding an already-ready child
           to a 1-child quorum would fire it prematurely *)
        let q = Depfast.Event.quorum ~label:"qr.quorum" Depfast.Event.Majority in
        List.iter (fun r -> Depfast.Event.add q ~child:r) replies;
        Depfast.Sched.spawn sched ~node:0 ~name:"qr.builder" (fun () ->
            Depfast.Sched.wait sched q;
            completed := true);
        List.iter2
          (fun name ev ->
            Depfast.Sched.spawn sched ~node:0 ~name (fun () ->
                Depfast.Sched.yield sched;
                Depfast.Event.fire ev))
          [ "qr.responder1"; "qr.responder2"; "qr.responder3" ]
          replies;
        {
          until = None;
          check =
            (fun () -> if !completed then [] else [ "builder never passed its quorum" ]);
        });
  }

let broken_quorum =
  {
    name = "broken-quorum";
    descr =
      "deliberately broken fixture: ready replies are dropped from the quorum \
       wiring; only some interleavings hang";
    gating = false;
    (* a known-bad fixture: explored on demand and by the test suite, but
       not part of the CI gate *)
    modules = [ fixtures_file ];
    par_safe = true;
    default_schedules = 1000;
    fault = None;
    allow = allow_none;
    provenance = core_provenance;
    make =
      (fun _san sched () ->
        Fixtures.spawn_broken_quorum sched;
        { until = None; check = (fun () -> []) });
  }

let leaky_backlog =
  {
    name = "leaky-backlog";
    descr =
      "deliberately seeded certificate mismatch: a producer overflows a queue \
       whose drain the static boundedness pass certified, while the consumer \
       is parked on a gate nobody fires";
    gating = false;
    (* a known-bad fixture for the queue-depth gauge sanitizer: explored
       on demand and by the test suite, not part of the CI gate *)
    modules = [ fixtures_file ];
    par_safe = false;
    default_schedules = 200;
    fault = None;
    allow = allow_none;
    provenance = core_provenance;
    make =
      (fun san sched () ->
        Fixtures.spawn_leaky_backlog san sched;
        (* stop well before the consumer's 1000 ms gate timeout: the
           pending timer keeps the terminal state non-quiescent, so the
           parked consumer is the scenario's point, not a violation *)
        { until = Some (Sim.Time.ms 10); check = (fun () -> []) });
  }

let spg_alias_blindspot =
  {
    name = "spg-alias-blindspot";
    descr =
      "deliberately seeded certificate mismatch: a net-slow completion event \
       escapes through a module-level mailbox to a bare waiter the static \
       call graph never connects to the source, so the observed propagation \
       edge lands outside the static exposure set";
    gating = false;
    (* a known-bad fixture for the SPG cross-check: explored on demand
       and by the test suite, not part of the CI gate *)
    modules = [ fixture_spg_file ];
    par_safe = false;
    default_schedules = 200;
    (* the injected kind the observed edges are attributed to; the
       fixture file has no static net-slow exposure, so any observed
       edge is outside the blast radius *)
    fault = Some Cluster.Fault.Net_slow;
    allow = allow_none;
    provenance = core_provenance;
    make =
      (fun _san sched () ->
        Fixture_spg.spawn sched;
        { until = None; check = (fun () -> []) });
  }

(* ---------- Raft scenarios (bounded, message-passing) ---------- *)

let raft_cfg =
  {
    Raft.Config.default with
    Raft.Config.enable_hiccups = false;
    election_timeout_min = Sim.Time.ms 80;
    election_timeout_max = Sim.Time.ms 160;
    heartbeat_interval = Sim.Time.ms 20;
    rpc_timeout = Sim.Time.ms 100;
    client_timeout = Sim.Time.ms 300;
  }

(* Safety only: terminal states of truncated interleavings may legally
   have no leader yet, but can never have two in one term, and committed
   prefixes can never disagree. *)
let raft_safety g () =
  let msgs = ref [] in
  let leaders = Hashtbl.create 4 in
  List.iter
    (fun s ->
      if Raft.Server.is_leader s then begin
        let term = Raft.Server.term s in
        match Hashtbl.find_opt leaders term with
        | Some other ->
          msgs :=
            Printf.sprintf "two leaders in term %d: s%d and s%d" term other
              (Raft.Server.id s)
            :: !msgs
        | None -> Hashtbl.replace leaders term (Raft.Server.id s)
      end)
    g.Raft.Group.servers;
  let rec pairs = function
    | [] | [ _ ] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          let upto = min (Raft.Server.commit_index a) (Raft.Server.commit_index b) in
          for i = 1 to upto do
            let ta = Raft.Rlog.term_at (Raft.Server.log a) i in
            let tb = Raft.Rlog.term_at (Raft.Server.log b) i in
            match (ta, tb) with
            | Some ta, Some tb when ta <> tb ->
              msgs :=
                Printf.sprintf
                  "committed logs disagree at index %d: s%d has term %d, s%d has term %d"
                  i (Raft.Server.id a) ta (Raft.Server.id b) tb
                :: !msgs
            | _ -> ()
          done)
        rest;
      pairs rest
  in
  pairs g.Raft.Group.servers;
  List.rev !msgs

let raft_allow ~n ~node = node >= n (* nodes past the servers are clients *)

(* A Raft scenario's [make]: the group (its network in choice mode,
   wired to the sanitizer), and whatever [setup] adds to the world, built
   once per run state; each run resets the group and calls the function
   [setup] returned, which spawns the run's drivers *)
let raft_make ?(cfg = raft_cfg) ~n ~until_ms setup san sched =
  let g = Raft.Group.create sched ~n ~cfg () in
  Cluster.Rpc.set_choice_mode g.Raft.Group.rpc true;
  Cluster.Rpc.set_net_sanitizer g.Raft.Group.rpc (fun msg ->
      Sanitizer.report san ~rule:Analysis.Finding.net_fifo_violation msg);
  let drive = setup san g in
  let inst = { until = Some (Sim.Time.ms until_ms); check = raft_safety g } in
  fun () ->
    Raft.Group.reset g;
    drive ();
    inst

let raft_elect ~n ~name ~schedules ~until_ms =
  {
    name;
    descr = Printf.sprintf "%d-replica leader election under delivery reordering" n;
    gating = true;
    modules = [ "lib/raft/server.ml"; "lib/cluster/rpc.ml" ];
    par_safe = true;
    default_schedules = schedules;
    fault = None;
    allow = raft_allow ~n;
    provenance = raft_provenance;
    make =
      raft_make ~n ~until_ms (fun _ g () ->
          Depfast.Sched.spawn g.Raft.Group.sched ~node:0 ~name:"drv.elect" (fun () ->
              Raft.Group.elect g 0));
  }

let raft_elect_3 = raft_elect ~n:3 ~name:"raft-elect-3" ~schedules:1000 ~until_ms:120
let raft_elect_5 = raft_elect ~n:5 ~name:"raft-elect-5" ~schedules:400 ~until_ms:120

let raft_replicate_3 =
  {
    name = "raft-replicate-3";
    descr = "elect, then one client write replicates to a 3-replica group";
    gating = true;
    modules = [ "lib/raft/server.ml"; "lib/raft/client.ml"; "lib/cluster/rpc.ml" ];
    par_safe = true;
    default_schedules = 500;
    fault = None;
    allow = raft_allow ~n:3;
    provenance = raft_provenance;
    make =
      raft_make ~n:3 ~until_ms:250 (fun _ g ->
          let client = List.hd (Raft.Group.make_clients g ~count:1 ()) in
          fun () ->
            Cluster.Node.spawn (Raft.Client.node client) ~name:"drv.client" (fun () ->
                Raft.Group.elect g 0;
                ignore (Raft.Client.put client ~key:"k" ~value:"v")));
  }

let raft_partition_heal_3 =
  {
    name = "raft-partition-heal-3";
    descr = "leader isolated, survivors re-elect, partition heals";
    gating = true;
    modules = [ "lib/raft/server.ml"; "lib/cluster/rpc.ml"; "lib/cluster/net.ml" ];
    par_safe = true;
    default_schedules = 300;
    fault = None;
    allow = raft_allow ~n:3;
    provenance = raft_provenance;
    make =
      raft_make ~n:3 ~until_ms:350 (fun _ g () ->
          let sched = g.Raft.Group.sched in
          Depfast.Sched.spawn sched ~node:0 ~name:"drv.partition" (fun () ->
              Raft.Group.elect g 0;
              Depfast.Sched.sleep sched (Sim.Time.ms 30);
              Cluster.Rpc.partition g.Raft.Group.rpc 0 1;
              Cluster.Rpc.partition g.Raft.Group.rpc 0 2;
              Depfast.Sched.sleep sched (Sim.Time.ms 200);
              Cluster.Rpc.heal g.Raft.Group.rpc 0 1;
              Cluster.Rpc.heal g.Raft.Group.rpc 0 2));
  }

let raft_rewind_3 =
  {
    name = "raft-rewind-3";
    descr =
      "writes continue while a follower is cut off; on heal the pipelined \
       AppendEntries stream is rejected and rewound";
    gating = true;
    modules = [ "lib/raft/server.ml"; "lib/raft/client.ml"; "lib/cluster/rpc.ml" ];
    par_safe = true;
    default_schedules = 300;
    fault = None;
    allow = raft_allow ~n:3;
    provenance = raft_provenance;
    make =
      raft_make ~n:3 ~until_ms:500 (fun _ g ->
          let client = List.hd (Raft.Group.make_clients g ~count:1 ()) in
          fun () ->
            Cluster.Node.spawn (Raft.Client.node client) ~name:"drv.client" (fun () ->
                Raft.Group.elect g 0;
                ignore (Raft.Client.put client ~key:"a" ~value:"1");
                Cluster.Rpc.partition g.Raft.Group.rpc 0 2;
                ignore (Raft.Client.put client ~key:"b" ~value:"2");
                ignore (Raft.Client.put client ~key:"c" ~value:"3");
                Cluster.Rpc.heal g.Raft.Group.rpc 0 2;
                ignore (Raft.Client.put client ~key:"d" ~value:"4")));
  }

let raft_slow_disk_admission_3 =
  (* the paper's §2 RethinkDB scenario, inverted: with the leader's disk
     fail-slow, rethink_like's pending queue grows with offered load, but
     DepFastRaft's bounded admission sheds at the door — in EVERY explored
     interleaving the gauge stays at or under [admission_depth] (there is
     no scheduling point between the depth check and the enqueue). *)
  let admission_depth = 4 in
  {
    name = "raft-slow-disk-admission-3";
    descr =
      "slow leader disk under offered load: the admission-queue gauge stays \
       within its certified bound while requests shed fail-fast";
    gating = true;
    modules = [ "lib/raft/server.ml"; "lib/raft/client.ml"; "lib/cluster/rpc.ml" ];
    par_safe = true;
    default_schedules = 150;
    (* the injected fault feeds the SPG cross-check: observed propagation
       edges must land inside the static disk-slow exposure set *)
    fault = Some Cluster.Fault.Disk_slow;
    allow = raft_allow ~n:3;
    provenance = raft_provenance;
    make =
      raft_make ~cfg:{ raft_cfg with Raft.Config.max_batch = 8; admission_depth } ~n:3
        ~until_ms:250 (fun san g ->
          let leader = Raft.Group.server g 0 in
          let depth () = Raft.Server.pending_depth leader in
          let clients = Raft.Group.make_clients g ~count:8 () in
          fun () ->
            Sanitizer.add_gauge san ~label:"raft.pending" ~file:"lib/raft/server.ml"
              ~cap:admission_depth depth;
            (* named into the raft. provenance prefix: this driver's only
               waits happen inside Server election code, so the SPG edges it
               observes belong to lib/raft/server.ml, not this file *)
            Depfast.Sched.spawn g.Raft.Group.sched ~node:0 ~name:"raft.drv-slowdisk" (fun () ->
                Raft.Group.elect g 0;
                (* fail-slow, not fail-stop: every leader-disk I/O takes 40x *)
                Cluster.Station.set_speed
                  (Cluster.Disk.station (Cluster.Node.disk (Raft.Server.node leader)))
                  40.0);
            List.iteri
              (fun i c ->
                Cluster.Node.spawn (Raft.Client.node c)
                  ~name:(Printf.sprintf "drv.load%d" i)
                  (fun () ->
                    for k = 1 to 3 do
                      ignore (Raft.Client.put c ~key:(Printf.sprintf "k%d" k) ~value:"v")
                    done))
              clients);
  }

let all =
  [
    yield_storm;
    mutex_handoff;
    condvar_handshake;
    signal_fanout;
    quorum_majority;
    broken_quorum;
    leaky_backlog;
    spg_alias_blindspot;
    raft_elect_3;
    raft_elect_5;
    raft_replicate_3;
    raft_partition_heal_3;
    raft_rewind_3;
    raft_slow_disk_admission_3;
  ]

let gating_scenarios = List.filter (fun s -> s.gating) all
let find name = List.find_opt (fun s -> s.name = name) all
