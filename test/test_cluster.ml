(* Tests for the cluster substrate: stations, disk, memory, network, RPC,
   and the Table-1 fault injectors. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_sched ?(seed = 1L) () = Depfast.Sched.create (Sim.Engine.create ~seed ())

(* ------------------------------------------------------------------ *)
(* Station *)

let test_station_single_server_fifo () =
  let s = make_sched () in
  let st = Cluster.Station.create s ~servers:1 ~name:"cpu" () in
  let done_at = ref [] in
  let submit tag work =
    let ev = Cluster.Station.submit st ~work () in
    Depfast.Event.on_fire ev (fun () -> done_at := (tag, Depfast.Sched.now s) :: !done_at)
  in
  submit "a" 100;
  submit "b" 50;
  Depfast.Sched.run s;
  (* FIFO: a (100us) finishes at 100, then b at 150 despite being shorter *)
  Alcotest.(check (list (pair string int)))
    "fifo order" [ ("a", 100); ("b", 150) ] (List.rev !done_at)

let test_station_parallel_servers () =
  let s = make_sched () in
  let st = Cluster.Station.create s ~servers:2 ~name:"cpu" () in
  let finished = ref [] in
  for i = 1 to 2 do
    let ev = Cluster.Station.submit st ~work:100 () in
    Depfast.Event.on_fire ev (fun () -> finished := (i, Depfast.Sched.now s) :: !finished)
  done;
  Depfast.Sched.run s;
  List.iter (fun (_, t) -> check_int "parallel completion" 100 t) !finished

let test_station_speed_factor () =
  let s = make_sched () in
  let st = Cluster.Station.create s ~servers:1 ~name:"cpu" () in
  Cluster.Station.set_speed st 20.0;
  let at = ref 0 in
  Depfast.Event.on_fire (Cluster.Station.submit st ~work:100 ()) (fun () ->
      at := Depfast.Sched.now s);
  Depfast.Sched.run s;
  check_int "20x slower" 2000 !at

let test_station_utilization () =
  let s = make_sched () in
  let st = Cluster.Station.create s ~servers:2 ~name:"cpu" () in
  (* one server busy for the whole horizon = 50% utilization *)
  ignore (Cluster.Station.submit st ~work:1000 ());
  Depfast.Sched.run s;
  let u = Cluster.Station.utilization st in
  check_bool "50% util" true (Float.abs (u -. 0.5) < 0.01);
  check_int "completed" 1 (Cluster.Station.completed_jobs st)

let test_station_queue_length () =
  let s = make_sched () in
  let st = Cluster.Station.create s ~servers:1 ~name:"cpu" () in
  ignore (Cluster.Station.submit st ~work:100 ());
  ignore (Cluster.Station.submit st ~work:100 ());
  ignore (Cluster.Station.submit st ~work:100 ());
  check_int "two queued" 2 (Cluster.Station.queue_length st);
  check_int "one busy" 1 (Cluster.Station.busy_servers st);
  Depfast.Sched.run s

(* a completion observer that resubmits synchronously runs while its
   server is free but the queue still holds a job: the station must keep
   one job per server and serve the queued job first *)
let test_station_resubmit_from_completion () =
  List.iter
    (fun servers ->
      let s = make_sched () in
      let engine = Depfast.Sched.engine s in
      let st = Cluster.Station.create s ~servers ~name:"cpu" () in
      let order = ref [] in
      let over = ref 0 in
      let watch () =
        if Cluster.Station.busy_servers st > servers then incr over
      in
      let rec submit tag ~resubmit =
        let ev = Cluster.Station.submit st ~work:100 () in
        watch ();
        Depfast.Event.on_fire ev (fun () ->
            watch ();
            order := tag :: !order;
            if resubmit then submit (tag ^ "'") ~resubmit:false)
      in
      for i = 1 to servers do
        submit (Printf.sprintf "a%d" i) ~resubmit:true
      done;
      for i = 1 to servers do
        submit (Printf.sprintf "b%d" i) ~resubmit:false
      done;
      while Sim.Engine.step engine do
        watch ()
      done;
      check_int
        (Printf.sprintf "busy never above %d servers" servers)
        0 !over;
      check_int "every job completed" (3 * servers) (Cluster.Station.completed_jobs st);
      let pos tag =
        let rec go i = function
          | [] -> Alcotest.failf "%s never completed" tag
          | x :: rest -> if x = tag then i else go (i + 1) rest
        in
        go 0 (List.rev !order)
      in
      for i = 1 to servers do
        check_bool "queued job served before the resubmission" true
          (pos (Printf.sprintf "b%d" i) < pos (Printf.sprintf "a%d'" i))
      done;
      check_int "finishes in three rounds" 300 (Sim.Engine.now engine))
    [ 1; 2; 3 ]

(* Allocation pin: a job costs its completion event and one timer entry,
   nothing else *)
let test_station_alloc () =
  let words_per n f =
    Gc.minor ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let s = make_sched () in
  let engine = Depfast.Sched.engine s in
  let name = String.concat "" [ "c"; "pu" ] in
  let st = Cluster.Station.create s ~servers:2 ~name () in
  let job () =
    ignore (Cluster.Station.submit st ~work:10 ());
    ignore (Cluster.Station.submit st ~work:10 ());
    ignore (Cluster.Station.submit st ~work:10 ());
    while Sim.Engine.step engine do
      ()
    done
  in
  (* build both server slots and the wait ring: one-offs *)
  job ();
  let per_job = words_per 1_000 job /. 3.0 in
  let event = words_per 3_000 (fun () -> ignore (Depfast.Event.signal ~label:name ())) in
  let timer_entry = 6.0 in
  if Float.abs (per_job -. (event +. timer_entry)) > 0.01 then
    Alcotest.failf "submit + completion: %.2f words, expected %.2f (event) + %.0f (timer entry)"
      per_job event timer_entry

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_pressure_and_penalty () =
  let m = Cluster.Memory.create ~soft_cap:1000 ~hard_cap:4000 () in
  Cluster.Memory.alloc m 500;
  check_bool "no pressure" true (Cluster.Memory.penalty m = 1.0);
  Cluster.Memory.alloc m 1000;
  (* used 1500, soft 1000 -> pressure 1.5 -> penalty 1 + 4*0.5 = 3 *)
  check_bool "pressure penalty" true (Float.abs (Cluster.Memory.penalty m -. 3.0) < 1e-9);
  Cluster.Memory.free m 1000;
  check_int "free" 500 (Cluster.Memory.used m)

let test_memory_oom_fires_once () =
  let m = Cluster.Memory.create ~soft_cap:100 ~hard_cap:200 () in
  let ooms = ref 0 in
  Cluster.Memory.on_oom m (fun () -> incr ooms);
  Cluster.Memory.alloc m 150;
  check_int "below hard" 0 !ooms;
  Cluster.Memory.alloc m 100;
  check_int "oom" 1 !ooms;
  Cluster.Memory.alloc m 100;
  check_int "only once" 1 !ooms

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk_write_cost () =
  let s = make_sched () in
  let d = Cluster.Disk.create s ~node_id:0 ~base_latency:100 ~bandwidth_mb_s:200.0 () in
  let at = ref 0 in
  (* 200 MB/s = 200 bytes/us -> 20_000 bytes = 100us transfer + 100us base *)
  Depfast.Event.on_fire (Cluster.Disk.write d ~bytes:20_000) (fun () ->
      at := Depfast.Sched.now s);
  Depfast.Sched.run s;
  check_int "write cost" 200 !at

let test_disk_bandwidth_throttle () =
  let s = make_sched () in
  let d = Cluster.Disk.create s ~node_id:0 ~base_latency:0 ~bandwidth_mb_s:200.0 () in
  Cluster.Disk.set_bandwidth_factor d 0.05;
  let at = ref 0 in
  Depfast.Event.on_fire (Cluster.Disk.write d ~bytes:10_000) (fun () ->
      at := Depfast.Sched.now s);
  Depfast.Sched.run s;
  check_int "throttled 20x" 1000 !at

let test_disk_fsync_after_write () =
  let s = make_sched () in
  let d = Cluster.Disk.create s ~node_id:0 () in
  let order = ref [] in
  Depfast.Event.on_fire (Cluster.Disk.write d ~bytes:1000) (fun () -> order := "w" :: !order);
  Depfast.Event.on_fire (Cluster.Disk.fsync d) (fun () -> order := "f" :: !order);
  Depfast.Sched.run s;
  Alcotest.(check (list string)) "write before fsync" [ "w"; "f" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Network *)

let test_net_delivery_and_fifo () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Constant 100.0) () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref [] in
  Cluster.Net.register net a ~handler:(fun ~src:_ _ -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ m -> got := m :: !got);
  Cluster.Net.send net ~src:0 ~dst:1 "first";
  Cluster.Net.send net ~src:0 ~dst:1 "second";
  Depfast.Sched.run s;
  Alcotest.(check (list string)) "in order" [ "first"; "second" ] (List.rev !got);
  check_int "delivered" 2 (Cluster.Net.delivered_count net)

let test_net_partition_drops () =
  let s = make_sched () in
  let net = Cluster.Net.create s () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref 0 in
  Cluster.Net.register net a ~handler:(fun ~src:_ () -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ () -> incr got);
  Cluster.Net.partition net 0 1;
  Cluster.Net.send net ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "dropped" 0 !got;
  Cluster.Net.heal net 0 1;
  Cluster.Net.send net ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "healed" 1 !got

let test_net_dead_node_drops () =
  let s = make_sched () in
  let net = Cluster.Net.create s () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref 0 in
  Cluster.Net.register net a ~handler:(fun ~src:_ () -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ () -> incr got);
  Cluster.Node.crash b;
  Cluster.Net.send net ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "to dead dropped" 0 !got

let test_net_nic_delay () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Constant 100.0) () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let at = ref 0 in
  Cluster.Net.register net a ~handler:(fun ~src:_ () -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ () -> at := Depfast.Sched.now s);
  Cluster.Node.set_nic_delay b (Sim.Time.ms 400);
  Cluster.Net.send net ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "tc delay applied" (Sim.Time.ms 400 + 100) !at

(* a burst of messages with random latencies must still arrive in send
   order on each directed link (the pooled outbox preserves the FIFO
   clamp), with per-link stats accounting every message *)
let test_net_fifo_pooled_burst () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Exponential 50.0) () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref [] in
  Cluster.Net.register net a ~handler:(fun ~src:_ _ -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ m -> got := m :: !got);
  for i = 1 to 200 do
    Cluster.Net.send net ~units:10 ~src:0 ~dst:1 i
  done;
  Depfast.Sched.run s;
  Alcotest.(check (list int)) "send order preserved" (List.init 200 (fun i -> i + 1))
    (List.rev !got);
  let st = Cluster.Net.stats net ~src:0 ~dst:1 in
  check_int "link delivered" 200 st.Cluster.Net.delivered;
  check_int "link dropped" 0 st.Cluster.Net.dropped;
  check_int "link units" 2000 st.Cluster.Net.units;
  check_int "reverse link untouched" 0 (Cluster.Net.stats net ~src:1 ~dst:0).Cluster.Net.delivered

(* partition installed while a message is in flight drops it at arrival
   time; messages sent while partitioned drop at send time; after heal the
   link resumes in order *)
let test_net_partition_heal_mid_flight () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Constant 100.0) () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref [] in
  Cluster.Net.register net a ~handler:(fun ~src:_ _ -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ m -> got := m :: !got);
  let engine = Depfast.Sched.engine s in
  Cluster.Net.send net ~src:0 ~dst:1 "in-flight";
  ignore
    (Sim.Engine.schedule engine ~delay:50 (fun () -> Cluster.Net.partition net 0 1));
  ignore
    (Sim.Engine.schedule engine ~delay:150 (fun () ->
         Cluster.Net.send net ~src:0 ~dst:1 "while-cut"));
  ignore
    (Sim.Engine.schedule engine ~delay:200 (fun () ->
         Cluster.Net.heal net 0 1;
         Cluster.Net.send net ~src:0 ~dst:1 "after-heal"));
  Depfast.Sched.run s;
  Alcotest.(check (list string)) "only post-heal delivered" [ "after-heal" ] (List.rev !got);
  let st = Cluster.Net.stats net ~src:0 ~dst:1 in
  check_int "link delivered" 1 st.Cluster.Net.delivered;
  check_int "link dropped" 2 st.Cluster.Net.dropped;
  let tot = Cluster.Net.totals net in
  check_int "totals delivered" 1 tot.Cluster.Net.delivered;
  check_int "totals dropped" 2 tot.Cluster.Net.dropped

let test_net_nodes_cached_sorted () =
  let s = make_sched () in
  let net = Cluster.Net.create s () in
  let mk id = Cluster.Node.create s ~id ~name:(Printf.sprintf "n%d" id) () in
  List.iter
    (fun id -> Cluster.Net.register net (mk id) ~handler:(fun ~src:_ () -> ()))
    [ 5; 1; 3 ];
  let ids () = List.map Cluster.Node.id (Cluster.Net.nodes net) in
  check_bool "sorted" true (ids () = [ 1; 3; 5 ]);
  check_bool "cached list reused" true (Cluster.Net.nodes net == Cluster.Net.nodes net);
  ignore (Cluster.Net.register net (mk 2) ~handler:(fun ~src:_ () -> ()));
  check_bool "cache refreshed after register" true (ids () = [ 1; 2; 3; 5 ])

(* a second node under a taken id is refused; the same node may re-register *)
let test_net_duplicate_id () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Constant 100.0) () in
  let a = Cluster.Node.create s ~id:1 ~name:"a" () in
  let got = ref 0 in
  Cluster.Net.register net a ~handler:(fun ~src:_ () -> ());
  Cluster.Net.register net a ~handler:(fun ~src:_ () -> incr got);
  let b = Cluster.Node.create s ~id:0 ~name:"b" () in
  Cluster.Net.register net b ~handler:(fun ~src:_ () -> ());
  Alcotest.check_raises "taken id"
    (Invalid_argument "Net.register: node id 1 is already taken") (fun () ->
      Cluster.Net.register net (Cluster.Node.create s ~id:1 ~name:"c" ())
        ~handler:(fun ~src:_ () -> ()));
  Cluster.Net.send net ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "first node kept, its new handler runs" 1 !got

(* ------------------------------------------------------------------ *)
(* RPC *)

let rpc_pair () =
  let s = make_sched () in
  let rpc : (string, string) Cluster.Rpc.t = Cluster.Rpc.create s () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  Cluster.Rpc.attach rpc a;
  (s, rpc, a, b)

let test_rpc_roundtrip () =
  let s, rpc, a, b = rpc_pair () in
  Cluster.Rpc.serve rpc ~node:b ~handler:(fun ~src:_ req -> Some (req ^ "-pong"));
  let got = ref None in
  Depfast.Sched.spawn s ~node:0 (fun () ->
      let call = Cluster.Rpc.call rpc ~src:a ~dst:1 "ping" in
      Depfast.Sched.wait s (Cluster.Rpc.event call);
      got := Cluster.Rpc.response call);
  Depfast.Sched.run s;
  Alcotest.(check (option string)) "reply" (Some "ping-pong") !got

let test_rpc_handler_can_wait () =
  let s, rpc, a, b = rpc_pair () in
  Cluster.Rpc.serve rpc ~node:b ~handler:(fun ~src:_ req ->
      Cluster.Node.cpu_work b (Sim.Time.ms 5);
      Some req);
  let at = ref 0 in
  Depfast.Sched.spawn s ~node:0 (fun () ->
      let call = Cluster.Rpc.call rpc ~src:a ~dst:1 "x" in
      Depfast.Sched.wait s (Cluster.Rpc.event call);
      at := Depfast.Sched.now s);
  Depfast.Sched.run s;
  check_bool "handler cpu time included" true (!at > Sim.Time.ms 5)

let test_rpc_memory_accounting () =
  let s, rpc, a, b = rpc_pair () in
  Cluster.Rpc.serve rpc ~node:b ~handler:(fun ~src:_ req -> Some req);
  let baseline = Cluster.Memory.used (Cluster.Node.memory a) in
  Depfast.Sched.spawn s ~node:0 (fun () ->
      let call = Cluster.Rpc.call rpc ~src:a ~dst:1 ~bytes:4096 "x" in
      check_int "charged while in flight" (baseline + 4096)
        (Cluster.Memory.used (Cluster.Node.memory a));
      check_int "outstanding tracked" 4096 (Cluster.Rpc.outstanding_bytes rpc ~node:0);
      Depfast.Sched.wait s (Cluster.Rpc.event call);
      check_int "released on reply" baseline (Cluster.Memory.used (Cluster.Node.memory a)));
  Depfast.Sched.run s

let test_rpc_abandon_releases () =
  let s, rpc, a, b = rpc_pair () in
  (* no handler installed: the call would hang forever *)
  ignore b;
  let baseline = Cluster.Memory.used (Cluster.Node.memory a) in
  Depfast.Sched.spawn s ~node:0 (fun () ->
      let call = Cluster.Rpc.call rpc ~src:a ~dst:1 ~bytes:1024 "x" in
      match Depfast.Sched.wait_timeout s (Cluster.Rpc.event call) (Sim.Time.ms 100) with
      | Depfast.Sched.Timed_out ->
        Cluster.Rpc.abandon call;
        check_int "released on abandon" baseline (Cluster.Memory.used (Cluster.Node.memory a))
      | Depfast.Sched.Ready -> Alcotest.fail "unexpected reply");
  Depfast.Sched.run s

let test_rpc_broadcast_quorum_and_discard () =
  let s = make_sched () in
  let rpc : (string, string) Cluster.Rpc.t = Cluster.Rpc.create s () in
  let caller = Cluster.Node.create s ~id:9 ~name:"caller" () in
  Cluster.Rpc.attach rpc caller;
  let replicas =
    List.map
      (fun i ->
        let n = Cluster.Node.create s ~id:i ~name:(string_of_int i) () in
        let delay = if i = 2 then Sim.Time.sec 30 else Sim.Time.ms i in
        Cluster.Rpc.serve rpc ~node:n ~handler:(fun ~src:_ req ->
            Cluster.Node.cpu_work n delay;
            Some req);
        n)
      [ 0; 1; 2 ]
  in
  ignore replicas;
  let completed = ref false in
  Depfast.Sched.spawn s ~node:9 (fun () ->
      let q, calls =
        Cluster.Rpc.broadcast rpc ~src:caller ~dsts:[ 0; 1; 2 ] ~arity:Depfast.Event.Majority
          "hello"
      in
      Depfast.Sched.wait s q;
      completed := true;
      (* quorum met at ~1ms; the straggler's call must be abandoned *)
      check_bool "before straggler" true (Depfast.Sched.now s < Sim.Time.sec 1);
      let straggler = List.nth calls 2 in
      check_bool "straggler abandoned" true
        (Depfast.Event.is_abandoned (Cluster.Rpc.event straggler)));
  Depfast.Sched.run ~until:(Sim.Time.sec 40) s;
  check_bool "completed" true !completed

(* ------------------------------------------------------------------ *)
(* Faults (Table 1) *)

let measure_cpu_work_under fault =
  let s = make_sched () in
  let n = Cluster.Node.create s ~id:0 ~name:"victim" () in
  (match fault with None -> () | Some k -> ignore (Cluster.Fault.inject n k));
  let at = ref 0 in
  Depfast.Sched.spawn s ~node:0 (fun () ->
      Cluster.Node.cpu_work n (Sim.Time.ms 1);
      at := Depfast.Sched.now s);
  Depfast.Sched.run ~until:(Sim.Time.sec 2) s;
  !at

let test_fault_cpu_slow () =
  let healthy = measure_cpu_work_under None in
  let faulty = measure_cpu_work_under (Some Cluster.Fault.Cpu_slow) in
  check_int "baseline 1ms" (Sim.Time.ms 1) healthy;
  check_int "20x slower" (Sim.Time.ms 20) faulty

let test_fault_cpu_contention () =
  let faulty = measure_cpu_work_under (Some Cluster.Fault.Cpu_contention) in
  check_bool "queueing delay" true (faulty > Sim.Time.ms 2)

let test_fault_mem_contention_penalty () =
  let faulty = measure_cpu_work_under (Some Cluster.Fault.Mem_contention) in
  (* pressure 2.0 -> penalty 5x *)
  check_int "5x slower" (Sim.Time.ms 5) faulty

let test_fault_disk_slow () =
  let s = make_sched () in
  let n = Cluster.Node.create s ~id:0 ~name:"victim" () in
  ignore (Cluster.Fault.inject n Cluster.Fault.Disk_slow);
  let at = ref 0 in
  Depfast.Event.on_fire (Cluster.Disk.write (Cluster.Node.disk n) ~bytes:100_000) (fun () ->
      at := Depfast.Sched.now s);
  Depfast.Sched.run s;
  (* 100KB at 10MB/s = 10ms + base *)
  check_bool "throttled" true (!at > Sim.Time.ms 9)

let test_fault_net_slow () =
  let s = make_sched () in
  let n = Cluster.Node.create s ~id:0 ~name:"victim" () in
  ignore (Cluster.Fault.inject n Cluster.Fault.Net_slow);
  check_int "400ms nic" (Sim.Time.ms 400) (Cluster.Node.nic_delay n)

let test_fault_clear_restores () =
  let s = make_sched () in
  let n = Cluster.Node.create s ~id:0 ~name:"victim" () in
  let active = Cluster.Fault.inject n Cluster.Fault.Cpu_slow in
  Cluster.Fault.clear active;
  let at = ref 0 in
  Depfast.Sched.spawn s ~node:0 (fun () ->
      Cluster.Node.cpu_work n (Sim.Time.ms 1);
      at := Depfast.Sched.now s);
  Depfast.Sched.run s;
  check_int "restored" (Sim.Time.ms 1) !at

let test_fault_catalog_complete () =
  check_int "six fault kinds" 6 (List.length Cluster.Fault.all);
  List.iter
    (fun k ->
      check_bool "has name" true (String.length (Cluster.Fault.name k) > 0);
      check_bool "has paper injection" true (String.length (Cluster.Fault.paper_injection k) > 0);
      check_bool "has sim mapping" true (String.length (Cluster.Fault.sim_injection k) > 0))
    Cluster.Fault.all

let suite =
  [
    ( "cluster.station",
      [
        Alcotest.test_case "single-server FIFO" `Quick test_station_single_server_fifo;
        Alcotest.test_case "parallel servers" `Quick test_station_parallel_servers;
        Alcotest.test_case "speed factor" `Quick test_station_speed_factor;
        Alcotest.test_case "utilization" `Quick test_station_utilization;
        Alcotest.test_case "queue length" `Quick test_station_queue_length;
        Alcotest.test_case "resubmit from a completion observer" `Quick
          test_station_resubmit_from_completion;
        Alcotest.test_case "allocation: event + timer entry per job" `Quick
          test_station_alloc;
      ] );
    ( "cluster.memory",
      [
        Alcotest.test_case "pressure and penalty" `Quick test_memory_pressure_and_penalty;
        Alcotest.test_case "oom fires once" `Quick test_memory_oom_fires_once;
      ] );
    ( "cluster.disk",
      [
        Alcotest.test_case "write cost" `Quick test_disk_write_cost;
        Alcotest.test_case "bandwidth throttle" `Quick test_disk_bandwidth_throttle;
        Alcotest.test_case "fsync after write" `Quick test_disk_fsync_after_write;
      ] );
    ( "cluster.net",
      [
        Alcotest.test_case "delivery + FIFO links" `Quick test_net_delivery_and_fifo;
        Alcotest.test_case "partition" `Quick test_net_partition_drops;
        Alcotest.test_case "dead node" `Quick test_net_dead_node_drops;
        Alcotest.test_case "nic delay (tc)" `Quick test_net_nic_delay;
        Alcotest.test_case "pooled FIFO burst + stats" `Quick test_net_fifo_pooled_burst;
        Alcotest.test_case "partition/heal mid-flight" `Quick
          test_net_partition_heal_mid_flight;
        Alcotest.test_case "nodes cached sorted" `Quick test_net_nodes_cached_sorted;
        Alcotest.test_case "duplicate id refused" `Quick test_net_duplicate_id;
      ] );
    ( "cluster.rpc",
      [
        Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
        Alcotest.test_case "handler waits" `Quick test_rpc_handler_can_wait;
        Alcotest.test_case "memory accounting" `Quick test_rpc_memory_accounting;
        Alcotest.test_case "abandon releases" `Quick test_rpc_abandon_releases;
        Alcotest.test_case "broadcast quorum + discard" `Quick test_rpc_broadcast_quorum_and_discard;
      ] );
    ( "cluster.fault",
      [
        Alcotest.test_case "cpu slow" `Quick test_fault_cpu_slow;
        Alcotest.test_case "cpu contention" `Quick test_fault_cpu_contention;
        Alcotest.test_case "memory contention" `Quick test_fault_mem_contention_penalty;
        Alcotest.test_case "disk slow" `Quick test_fault_disk_slow;
        Alcotest.test_case "net slow" `Quick test_fault_net_slow;
        Alcotest.test_case "clear restores" `Quick test_fault_clear_restores;
        Alcotest.test_case "catalog complete" `Quick test_fault_catalog_complete;
      ] );
  ]
