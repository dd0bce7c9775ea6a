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

(* Allocation pin: a job costs its completion event, nothing else — on a
   bare station, and on the CPU of a node under memory pressure, whose
   jobs also take the memory's penalty (5.0 here: a closure returning a
   computed penalty boxed it, 2 more words per job). A fresh timer entry
   per job cost 6 more words; each server now re-arms its own. The event
   is 11 words: 9 for a basic event (12 before its compound-only fields
   were shared), 2 for its label's option box; the ceiling sits between. *)
let check_station_alloc s st =
  let words_per n f =
    Gc.minor ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let engine = Depfast.Sched.engine s in
  let name = String.concat "" [ "c"; "pu" ] in
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
  if Float.abs (per_job -. event) > 0.01 then
    Alcotest.failf "submit + completion: %.2f words, expected %.2f (the event alone)" per_job event;
  if per_job > 12.5 then Alcotest.failf "submit + completion: %.2f words > ceiling 12.5" per_job

let test_station_alloc () =
  let s = make_sched () in
  check_station_alloc s (Cluster.Station.create s ~servers:2 ~name:"cpu" ());
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"n0" ~mem_soft_cap:(100 * 1024 * 1024) () in
  check_bool "under pressure" true (Cluster.Memory.penalty (Cluster.Node.memory node) > 1.0);
  check_station_alloc s (Cluster.Node.cpu node)

(* Allocation pin: a waited charge ([Node.cpu_work], through
   [Station.run]) parks its coroutine in the station with the job and
   builds no completion event. One cycle (charge, park, completion,
   resume) read 13.0 minor words while the charge waited on a fresh
   event from [Station.submit] (11 for the event and its label's option
   box, 2 for the park's continuation) and 2.0 with the held park; the
   ceiling sits between. *)
let cpu_work_cycle_words () =
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"n0" () in
  let n = 1_000 in
  let words = ref 0.0 in
  Cluster.Node.spawn node (fun () ->
      (* builds the server slot: a one-off *)
      Cluster.Node.cpu_work node 10;
      Gc.minor ();
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Cluster.Node.cpu_work node 10
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n);
  Depfast.Sched.run s;
  !words

let test_station_waited_charge_alloc () =
  let words = cpu_work_cycle_words () in
  if words > 7.5 then
    Alcotest.failf "Node.cpu_work cycle: %.2f minor words > ceiling 7.5 (an event per charge?)"
      words

(* the three kinds of job on one server, all submitted at 0 in this
   order: waited charges ([run]), jobs with an event ([submit ~event]) and
   charges nobody waits on ([charge]). They complete in submission order,
   each waiter resuming at its own job's completion *)
let test_station_mixed_jobs_fifo () =
  let s = make_sched () in
  let st = Cluster.Station.create s ~servers:1 ~name:"cpu" () in
  let seen = ref [] in
  let note tag = seen := (tag, Depfast.Sched.now s) :: !seen in
  let waited tag work =
    Depfast.Sched.spawn s (fun () ->
        Cluster.Station.run st ~work;
        note tag)
  in
  let with_event tag work =
    Depfast.Sched.spawn s (fun () ->
        let ev = Depfast.Event.signal ~label:tag () in
        Depfast.Event.on_fire ev (fun () -> note tag);
        ignore (Cluster.Station.submit st ~event:ev ~work ()))
  in
  let unwaited work = Depfast.Sched.spawn s (fun () -> Cluster.Station.charge st ~work) in
  waited "a" 100;
  with_event "e1" 50;
  unwaited 30;
  waited "b" 20;
  with_event "e2" 10;
  unwaited 5;
  waited "c" 40;
  Depfast.Sched.run s;
  Alcotest.(check (list (pair string int)))
    "submission order, each at its own completion"
    [ ("a", 100); ("e1", 150); ("b", 200); ("e2", 210); ("c", 255) ]
    (List.rev !seen);
  check_int "every job completed" 7 (Cluster.Station.completed_jobs st);
  check_int "nothing left in service" 0 (Cluster.Station.busy_servers st)

(* a speed change reaches the jobs that start after it, queued waited
   charges included, and never the job in service *)
let test_station_speed_read_at_start () =
  let s = make_sched () in
  let st = Cluster.Station.create s ~servers:1 ~name:"cpu" () in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    Depfast.Sched.spawn s (fun () ->
        Cluster.Station.run st ~work:100;
        done_at.(i) <- Depfast.Sched.now s)
  done;
  let at us f = ignore (Sim.Engine.schedule (Depfast.Sched.engine s) ~delay:us f) in
  at 50 (fun () -> Cluster.Station.set_speed st 2.0);
  at 150 (fun () -> Cluster.Station.set_speed st 1.0);
  Depfast.Sched.run s;
  check_int "in service at the change: nominal" 100 done_at.(0);
  check_int "started after it: twice as long, whatever came later" 300 done_at.(1)

(* [reset] drops the held charges in service and queued: with the
   engine and scheduler reset too, as for a world reused across runs, no
   old waiter resumes, the station keeps none of their wakes, and the
   next charge runs on a clean station *)
let test_station_reset_drops_held () =
  let s = make_sched () in
  let engine = Depfast.Sched.engine s in
  let st = Cluster.Station.create s ~servers:1 ~name:"cpu" () in
  let resumed = ref [] in
  let wakes = Weak.create 3 in
  for i = 0 to 2 do
    Depfast.Sched.spawn s (fun () ->
        Weak.set wakes i (Some (Depfast.Sched.wake s));
        Cluster.Station.run st ~work:100;
        resumed := i :: !resumed)
  done;
  Depfast.Sched.run ~until:50 s;
  check_int "one in service" 1 (Cluster.Station.busy_servers st);
  check_int "two queued" 2 (Cluster.Station.queue_length st);
  Sim.Engine.reset engine;
  Depfast.Sched.reset s;
  Cluster.Station.reset st;
  Gc.full_major ();
  for i = 0 to 2 do
    check_bool (Printf.sprintf "waiter %d's wake let go" i) false (Weak.check wakes i)
  done;
  let next_at = ref (-1) in
  Depfast.Sched.spawn s (fun () ->
      Cluster.Station.run st ~work:10;
      next_at := Depfast.Sched.now s);
  Depfast.Sched.run s;
  Alcotest.(check (list int)) "no old waiter resumed" [] !resumed;
  check_int "the next charge served at once" 10 !next_at;
  ignore (Sys.opaque_identity st)

(* A reset while the engine runs on: the in-service job's completion goes
   with it. Left armed, it fires at 100 µs and frees the one server a
   second time (busy below 0), and the next charge then builds a second
   slot past the slot array *)
let test_station_reset_mid_run () =
  let s = make_sched () in
  let st = Cluster.Station.create s ~servers:1 ~name:"cpu" () in
  for _ = 0 to 2 do
    Depfast.Sched.spawn s (fun () -> Cluster.Station.run st ~work:100)
  done;
  Depfast.Sched.run ~until:50 s;
  check_int "one in service" 1 (Cluster.Station.busy_servers st);
  Cluster.Station.reset st;
  let t0 = Depfast.Sched.now s in
  let lowest = ref 0 and next_at = ref (-1) in
  Depfast.Sched.spawn s (fun () ->
      for _ = 1 to 30 do
        lowest := min !lowest (Cluster.Station.busy_servers st);
        Depfast.Sched.sleep s 10
      done);
  Depfast.Sched.spawn s (fun () ->
      Depfast.Sched.sleep s 100;
      Cluster.Station.run st ~work:10;
      next_at := Depfast.Sched.now s);
  Depfast.Sched.run s;
  check_int "busy servers never below 0" 0 !lowest;
  check_int "the next charge completes" (t0 + 110) !next_at;
  check_int "idle at the end" 0 (Cluster.Station.busy_servers st)

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
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Constant 100.0) ~filler:"" () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref [] in
  Cluster.Net.register net a ~handler:(fun ~src:_ _ -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ m -> got := m :: !got);
  Cluster.Net.send net ~units:0 ~src:0 ~dst:1 "first";
  Cluster.Net.send net ~units:0 ~src:0 ~dst:1 "second";
  Depfast.Sched.run s;
  Alcotest.(check (list string)) "in order" [ "first"; "second" ] (List.rev !got);
  check_int "delivered" 2 (Cluster.Net.delivered_count net)

let test_net_partition_drops () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~filler:() () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref 0 in
  Cluster.Net.register net a ~handler:(fun ~src:_ () -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ () -> incr got);
  Cluster.Net.partition net 0 1;
  Cluster.Net.send net ~units:0 ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "dropped" 0 !got;
  Cluster.Net.heal net 0 1;
  Cluster.Net.send net ~units:0 ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "healed" 1 !got

let test_net_dead_node_drops () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~filler:() () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref 0 in
  Cluster.Net.register net a ~handler:(fun ~src:_ () -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ () -> incr got);
  Cluster.Node.crash b;
  Cluster.Net.send net ~units:0 ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "to dead dropped" 0 !got

let test_net_nic_delay () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Constant 100.0) ~filler:() () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let at = ref 0 in
  Cluster.Net.register net a ~handler:(fun ~src:_ () -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ () -> at := Depfast.Sched.now s);
  Cluster.Node.set_nic_delay b (Sim.Time.ms 400);
  Cluster.Net.send net ~units:0 ~src:0 ~dst:1 ();
  Depfast.Sched.run s;
  check_int "tc delay applied" (Sim.Time.ms 400 + 100) !at

(* A message out of flight, delivered or dropped at arrival, leaves its
   ring slot: kept there, each link held up to its ring's capacity of old
   messages reachable for as long as the network lived. A burst of 9
   also doubles the 8-slot ring, whose copied half must hold none. *)
let[@inline never] send_tracked net weak k ~dst =
  let m = Bytes.make 8 'm' in
  Weak.set weak k (Some m);
  Cluster.Net.send net ~units:0 ~src:0 ~dst m

let test_net_lets_go () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~filler:Bytes.empty () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let c = Cluster.Node.create s ~id:2 ~name:"c" () in
  List.iter (fun n -> Cluster.Net.register net n ~handler:(fun ~src:_ _ -> ())) [ a; b; c ];
  let weak = Weak.create 10 in
  send_tracked net weak 0 ~dst:2;
  for k = 1 to 9 do
    send_tracked net weak k ~dst:1
  done;
  Cluster.Node.crash c;
  Depfast.Sched.run s;
  check_int "nine delivered" 9 (Cluster.Net.delivered_count net);
  Gc.full_major ();
  check_bool "dropped message unreachable" true (Weak.get weak 0 = None);
  for k = 1 to 9 do
    check_bool (Printf.sprintf "delivered message %d unreachable" k) true (Weak.get weak k = None)
  done;
  ignore (Sys.opaque_identity net)

(* a burst of messages with random latencies must still arrive in send
   order on each directed link (the pooled outbox preserves the FIFO
   clamp), with per-link stats accounting every message *)
let test_net_fifo_pooled_burst () =
  let s = make_sched () in
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Exponential 50.0) ~filler:0 () in
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
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Constant 100.0) ~filler:"" () in
  let a = Cluster.Node.create s ~id:0 ~name:"a" () in
  let b = Cluster.Node.create s ~id:1 ~name:"b" () in
  let got = ref [] in
  Cluster.Net.register net a ~handler:(fun ~src:_ _ -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ m -> got := m :: !got);
  let engine = Depfast.Sched.engine s in
  Cluster.Net.send net ~units:0 ~src:0 ~dst:1 "in-flight";
  ignore
    (Sim.Engine.schedule engine ~delay:50 (fun () -> Cluster.Net.partition net 0 1));
  ignore
    (Sim.Engine.schedule engine ~delay:150 (fun () ->
         Cluster.Net.send net ~units:0 ~src:0 ~dst:1 "while-cut"));
  ignore
    (Sim.Engine.schedule engine ~delay:200 (fun () ->
         Cluster.Net.heal net 0 1;
         Cluster.Net.send net ~units:0 ~src:0 ~dst:1 "after-heal"));
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
  let net = Cluster.Net.create s ~filler:() () in
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
  let net = Cluster.Net.create s ~latency:(Sim.Dist.Constant 100.0) ~filler:() () in
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
  Cluster.Net.send net ~units:0 ~src:0 ~dst:1 ();
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

(* The abandon contract: [abandon] frees a live call's buffer before the
   event's abandon observers run, and frees nothing on a call that is
   over; abandoning the event alone frees the buffer only when the
   response comes, which is then discarded. *)
let test_rpc_abandon_contract () =
  let s, rpc, a, b = rpc_pair () in
  Cluster.Rpc.serve rpc ~node:b ~handler:(fun ~src:_ req -> Some req);
  let baseline = Cluster.Memory.used (Cluster.Node.memory a) in
  let answered = Cluster.Rpc.call rpc ~src:a ~dst:1 "x" in
  Depfast.Sched.run s;
  Cluster.Rpc.abandon answered;
  Cluster.Rpc.abandon answered;
  check_int "an answered call's abandon frees nothing more" 0
    (Cluster.Rpc.outstanding_bytes rpc ~node:0);
  check_int "memory back to the baseline" baseline (Cluster.Memory.used (Cluster.Node.memory a));
  Alcotest.(check (option string)) "its reply kept" (Some "x") (Cluster.Rpc.response answered);
  let late = Cluster.Rpc.call rpc ~src:a ~dst:1 "y" in
  Depfast.Event.abandon (Cluster.Rpc.event late);
  check_int "the event's abandon frees nothing" 512 (Cluster.Rpc.outstanding_bytes rpc ~node:0);
  Depfast.Sched.run s;
  check_int "its response frees it" 0 (Cluster.Rpc.outstanding_bytes rpc ~node:0);
  check_int "and is discarded" 1 (Cluster.Rpc.discarded_responses rpc);
  Alcotest.(check (option string)) "no reply kept" None (Cluster.Rpc.response late);
  Cluster.Node.crash b;
  let pending = Cluster.Rpc.call rpc ~src:a ~dst:1 "z" in
  let seen = ref (-1) in
  Depfast.Event.on_abandon (Cluster.Rpc.event pending) (fun () ->
      seen := Cluster.Rpc.outstanding_bytes rpc ~node:0);
  Cluster.Rpc.abandon pending;
  check_int "freed before the observers run" 0 !seen;
  Depfast.Sched.run s

(* [abandon_id] abandons an unfinished call and leaves a finished one
   (answered, or abandoned already) as it is *)
let test_rpc_abandon_id () =
  let s, rpc, a, b = rpc_pair () in
  Cluster.Rpc.serve rpc ~node:b ~handler:(fun ~src:_ req -> Some req);
  let answered = Cluster.Rpc.call rpc ~src:a ~dst:1 "x" in
  Depfast.Sched.run s;
  check_bool "answered" true (Depfast.Event.is_ready (Cluster.Rpc.event answered));
  Cluster.Rpc.abandon_id rpc (Cluster.Rpc.id answered);
  check_bool "an answered call is not abandoned" false
    (Depfast.Event.is_abandoned (Cluster.Rpc.event answered));
  Cluster.Node.crash b;
  let pending = Cluster.Rpc.call rpc ~src:a ~dst:1 "y" in
  check_bool "ids differ" true (Cluster.Rpc.id pending <> Cluster.Rpc.id answered);
  Cluster.Rpc.abandon_id rpc (Cluster.Rpc.id pending);
  check_bool "a pending call is abandoned" true
    (Depfast.Event.is_abandoned (Cluster.Rpc.event pending));
  check_int "its buffer released" 0 (Cluster.Rpc.outstanding_bytes rpc ~node:0);
  Cluster.Rpc.abandon_id rpc (Cluster.Rpc.id pending);
  Depfast.Sched.run s;
  check_int "nothing discarded" 0 (Cluster.Rpc.discarded_responses rpc)

(* An abandoned call leaves the rpc. Its request to a crashed node is
   dropped, so no reply ever comes to remove its entry: kept until a reply,
   the call record held its event and the event's observers for the rest
   of the run. *)
let[@inline never] call_and_abandon rpc a weak =
  let call = Cluster.Rpc.call rpc ~src:a ~dst:1 "x" in
  Weak.set weak 0 (Some (Cluster.Rpc.event call));
  Cluster.Rpc.abandon call

let test_rpc_abandon_forgets () =
  let s, rpc, a, b = rpc_pair () in
  Cluster.Rpc.serve rpc ~node:b ~handler:(fun ~src:_ req -> Some req);
  Cluster.Node.crash b;
  let weak = Weak.create 1 in
  call_and_abandon rpc a weak;
  Depfast.Sched.run s;
  Gc.full_major ();
  check_bool "abandoned call's event unreachable" true (Weak.get weak 0 = None);
  check_int "no reply, nothing discarded" 0 (Cluster.Rpc.discarded_responses rpc)

(* Allocation pin: a warm call with its reply allocates its two frames,
   the handler's reply option (delivered as built), the call's event and
   record, the handler's spawn closure and fire wake, the call table's
   bucket and the caller's continuation; the abandon path and the
   handler's node tag add nothing. One round reads 44.0 minor words, and
   46.0 while delivery boxed the reply in a second option; the ceiling
   sits between. *)
let rpc_roundtrip_words () =
  let s, rpc, a, b = rpc_pair () in
  Cluster.Rpc.serve rpc ~node:b ~handler:(fun ~src:_ req -> Some req);
  let round () =
    let call = Cluster.Rpc.call rpc ~src:a ~dst:1 "x" in
    Depfast.Sched.wait s (Cluster.Rpc.event call)
  in
  let n = 1_000 in
  let words = ref 0.0 in
  Depfast.Sched.spawn s ~node:0 (fun () ->
      (* builds the handler's context and the links' rings: one-offs *)
      round ();
      Gc.minor ();
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        round ()
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n);
  Depfast.Sched.run s;
  !words

let test_rpc_roundtrip_alloc () =
  let words = rpc_roundtrip_words () in
  if words > 45.0 then
    Alcotest.failf "rpc round trip: %.2f minor words > ceiling 45 (per-call bookkeeping?)" words

(* Allocation pin: a spawn on a node (an rpc handler's, per request)
   costs what a spawn with a constant node tag does: 5 words, its fire
   wake. Passing the node's id to [Sched.spawn]'s optional [?node] boxed
   it, 2 words more per spawn. *)
let spawn_words spawn =
  let s = make_sched () in
  let node = Cluster.Node.create s ~id:0 ~name:"n0" () in
  let body () = () in
  (* builds the context: a one-off *)
  spawn s node body;
  Depfast.Sched.run s;
  let n = 1_000 in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    spawn s node body;
    Depfast.Sched.run s
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_node_spawn_alloc () =
  let on_node = spawn_words (fun _ node f -> Cluster.Node.spawn node f) in
  let tagged = spawn_words (fun s _ f -> Depfast.Sched.spawn s ~node:0 f) in
  if Float.abs (on_node -. tagged) > 0.01 then
    Alcotest.failf "Node.spawn: %.2f words, a constant-tag spawn %.2f (an option box?)" on_node
      tagged

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

(* a slowdown that starts or ends while a CPU-slow fault is in force (a
   hiccup's x4) survives the fault's clear; nominal speed once both end *)
let test_fault_clear_keeps_other_slowdowns () =
  let s = make_sched () in
  let n = Cluster.Node.create s ~id:0 ~name:"victim" () in
  let cpu = Cluster.Node.cpu n in
  let scale k = Cluster.Station.set_speed cpu (Cluster.Station.speed cpu *. k) in
  (* in force at clear *)
  let active = Cluster.Fault.inject n Cluster.Fault.Cpu_slow in
  scale 4.0;
  Cluster.Fault.clear active;
  Alcotest.(check (float 0.0)) "hiccup survives the clear" 4.0 (Cluster.Station.speed cpu);
  scale 0.25;
  Alcotest.(check (float 0.0)) "nominal after the hiccup" 1.0 (Cluster.Station.speed cpu);
  (* in force at inject *)
  scale 4.0;
  let active = Cluster.Fault.inject n Cluster.Fault.Cpu_slow in
  scale 0.25;
  Cluster.Fault.clear active;
  Alcotest.(check (float 0.0)) "nominal after both" 1.0 (Cluster.Station.speed cpu)

(* a node built with its own hard cap gets that cap back, not 16 GiB *)
let test_fault_clear_restores_hard_cap () =
  let mib = 1024 * 1024 in
  let s = make_sched () in
  let n = Cluster.Node.create s ~id:0 ~name:"victim" ~mem_hard_cap:(1024 * mib) () in
  let memory = Cluster.Node.memory n in
  Cluster.Fault.clear (Cluster.Fault.inject n Cluster.Fault.Mem_contention);
  Cluster.Memory.alloc memory (700 * mib);
  check_bool "under the created cap" true (Cluster.Node.alive n);
  Cluster.Memory.alloc memory (200 * mib);
  check_bool "over the created cap: OOM" false (Cluster.Node.alive n)

(* at a fixed seed over 5 s, sampled every 100 us: the CPU is nominal or
   x4 slower, and some hiccup is seen *)
let test_fault_hiccups () =
  let s = make_sched () in
  let n = Cluster.Node.create s ~id:0 ~name:"victim" () in
  Cluster.Fault.hiccups n (Sim.Rng.create 5L);
  let bad = ref 0 and slow = ref 0 in
  Depfast.Sched.spawn s ~node:0 (fun () ->
      for _ = 1 to 50_000 do
        Depfast.Sched.sleep s (Sim.Time.us 100);
        match Cluster.Station.speed (Cluster.Node.cpu n) with
        | 1.0 -> ()
        | 4.0 -> incr slow
        | _ -> incr bad
      done);
  Depfast.Sched.run ~until:(Sim.Time.sec 5) s;
  check_int "only 1.0 or 4.0" 0 !bad;
  check_bool "a hiccup seen" true (!slow > 0)

let test_fault_keys () =
  let keys = List.map Cluster.Fault.key Cluster.Fault.all in
  List.iter
    (fun k -> check_bool "round trip" true (Cluster.Fault.of_key (Cluster.Fault.key k) = Some k))
    Cluster.Fault.all;
  check_int "distinct" 6 (List.length (List.sort_uniq compare keys));
  check_bool "unknown" true (Cluster.Fault.of_key "cpu-fast" = None)

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
        Alcotest.test_case "a waited charge allocates no event" `Quick
          test_station_waited_charge_alloc;
        Alcotest.test_case "waited, event and unwaited jobs in FIFO order" `Quick
          test_station_mixed_jobs_fifo;
        Alcotest.test_case "duration read from the speed at the job's start" `Quick
          test_station_speed_read_at_start;
        Alcotest.test_case "reset drops held charges" `Quick test_station_reset_drops_held;
        Alcotest.test_case "reset mid-run cancels completions" `Quick test_station_reset_mid_run;
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
        Alcotest.test_case "out of flight, out of reach" `Quick test_net_lets_go;
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
        Alcotest.test_case "abandon forgets the call" `Quick test_rpc_abandon_forgets;
        Alcotest.test_case "abandon by id spares finished calls" `Quick test_rpc_abandon_id;
        Alcotest.test_case "abandon frees a live call once" `Quick test_rpc_abandon_contract;
        Alcotest.test_case "an rpc round trip allocates its messages, its event and its record"
          `Quick test_rpc_roundtrip_alloc;
        Alcotest.test_case "a Node.spawn allocates no option box" `Quick test_node_spawn_alloc;
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
        Alcotest.test_case "clear keeps a concurrent slowdown" `Quick
          test_fault_clear_keeps_other_slowdowns;
        Alcotest.test_case "clear restores the created hard cap" `Quick
          test_fault_clear_restores_hard_cap;
        Alcotest.test_case "hiccups" `Quick test_fault_hiccups;
        Alcotest.test_case "keys" `Quick test_fault_keys;
        Alcotest.test_case "catalog complete" `Quick test_fault_catalog_complete;
      ] );
  ]
