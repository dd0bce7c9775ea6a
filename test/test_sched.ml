(* Tests for the coroutine scheduler, tracing, and SPG construction. *)

open Depfast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_sched ?(trace = false) () =
  let engine = Sim.Engine.create () in
  let tr = Trace.create ~enabled:trace () in
  Sched.create ~trace:tr engine

let test_spawn_runs () =
  let s = make_sched () in
  let ran = ref false in
  Sched.spawn s (fun () -> ran := true);
  Sched.run s;
  check_bool "body ran" true !ran

let test_sleep_advances_time () =
  let s = make_sched () in
  let woke_at = ref (-1) in
  Sched.spawn s (fun () ->
      Sched.sleep s (Sim.Time.ms 3);
      woke_at := Sched.now s);
  Sched.run s;
  check_int "woke at 3ms" (Sim.Time.ms 3) !woke_at

let test_wait_fired_later () =
  let s = make_sched () in
  let ev = Event.signal () in
  let got = ref (-1) in
  Sched.spawn s (fun () ->
      Sched.wait s ev;
      got := Sched.now s);
  ignore (Sim.Engine.schedule (Sched.engine s) ~delay:(Sim.Time.ms 7) (fun () -> Event.fire ev));
  Sched.run s;
  check_int "resumed at fire time" (Sim.Time.ms 7) !got

let test_wait_already_ready () =
  let s = make_sched () in
  let ev = Event.signal () in
  Event.fire ev;
  let resumed = ref false in
  Sched.spawn s (fun () ->
      Sched.wait s ev;
      resumed := true);
  Sched.run s;
  check_bool "immediate resume" true !resumed

let test_wait_timeout_expires () =
  let s = make_sched () in
  let ev = Event.signal () in
  let outcome = ref Sched.Ready in
  Sched.spawn s (fun () -> outcome := Sched.wait_timeout s ev (Sim.Time.ms 10));
  Sched.run s;
  check_bool "timed out" true (!outcome = Sched.Timed_out);
  check_int "clock at timeout" (Sim.Time.ms 10) (Sim.Engine.now (Sched.engine s))

let test_wait_timeout_beaten_by_fire () =
  let s = make_sched () in
  let ev = Event.signal () in
  let outcome = ref Sched.Timed_out in
  Sched.spawn s (fun () -> outcome := Sched.wait_timeout s ev (Sim.Time.ms 10));
  ignore (Sim.Engine.schedule (Sched.engine s) ~delay:(Sim.Time.ms 2) (fun () -> Event.fire ev));
  Sched.run s;
  check_bool "ready" true (!outcome = Sched.Ready);
  (* the cancelled timeout timer must not keep the engine busy *)
  check_int "no pending work" 0 (Sim.Engine.pending (Sched.engine s))

let test_quorum_wait_coroutines () =
  (* one coroutine per replica fires its rpc event after a delay; waiting on
     the majority quorum resumes at the 2nd-fastest, not the slowest *)
  let s = make_sched () in
  let q = Event.quorum Event.Majority in
  let delays = [ (0, 5); (1, 400); (2, 9) ] in
  List.iter
    (fun (peer, ms) ->
      let ev = Event.rpc_completion ~peer () in
      Event.add q ~child:ev;
      Sched.spawn s ~node:peer (fun () ->
          Sched.sleep s (Sim.Time.ms ms);
          Event.fire ev))
    delays;
  let resumed_at = ref (-1) in
  Sched.spawn s ~node:10 (fun () ->
      Sched.wait s q;
      resumed_at := Sched.now s);
  Sched.run s;
  check_int "majority at 9ms, not 400ms" (Sim.Time.ms 9) !resumed_at

let test_yield_interleaving () =
  let s = make_sched () in
  let log = ref [] in
  let worker tag =
    Sched.spawn s (fun () ->
        log := (tag ^ "1") :: !log;
        Sched.yield s;
        log := (tag ^ "2") :: !log)
  in
  worker "a";
  worker "b";
  Sched.run s;
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_spawn_here_inherits_node () =
  let s = make_sched () in
  let child_node = ref (-2) in
  Sched.spawn s ~node:5 (fun () ->
      Sched.spawn_here s (fun () -> child_node := Sched.current_node s));
  Sched.run s;
  check_int "inherited" 5 !child_node

let test_timer_event () =
  let s = make_sched () in
  let at = ref (-1) in
  Sched.spawn s (fun () ->
      let ev = Sched.timer s (Sim.Time.ms 4) in
      Sched.wait s ev;
      at := Sched.now s);
  Sched.run s;
  check_int "timer fires" (Sim.Time.ms 4) !at

let test_trace_records_quorum_arity () =
  let s = make_sched ~trace:true () in
  let q = Event.quorum Event.Majority in
  List.iter
    (fun peer ->
      let ev = Event.rpc_completion ~peer () in
      Event.add q ~child:ev;
      Sched.spawn s ~node:peer (fun () ->
          Sched.sleep s (Sim.Time.ms peer);
          Event.fire ev))
    [ 1; 2; 3 ];
  Sched.spawn s ~node:0 ~name:"leader" (fun () -> Sched.wait s q);
  Sched.run s;
  let w =
    List.find (fun w -> Trace.event_kind w = Event.Quorum) (Trace.waits (Sched.trace s))
  in
  check_int "k" 2 w.Trace.quorum_k;
  check_int "n" 3 w.Trace.quorum_n;
  check_int "node" 0 w.Trace.node;
  Alcotest.(check (list int)) "peers" [ 1; 2; 3 ] (Trace.peers w);
  Alcotest.(check (list int)) "no stallers" [] (Trace.stallers w)

let run_mixed_trace () =
  (* node 0 does a quorum wait over nodes 1-3 and a single rpc wait on
     node 4; node 9 (a "client") waits on node 0 *)
  let s = make_sched ~trace:true () in
  let q = Event.quorum Event.Majority in
  let replies = List.map (fun peer -> Event.rpc_completion ~peer ()) [ 1; 2; 3 ] in
  List.iter (fun ev -> Event.add q ~child:ev) replies;
  List.iter Event.fire replies;
  let single = Event.rpc_completion ~peer:4 () in
  let client_wait = Event.rpc_completion ~peer:0 () in
  Sched.spawn s ~node:0 ~name:"server" (fun () ->
      Sched.wait s q;
      Sched.wait s single;
      Event.fire client_wait);
  Sched.spawn s ~node:9 ~name:"client" (fun () -> Sched.wait s client_wait);
  ignore (Sim.Engine.schedule (Sched.engine s) ~delay:10 (fun () -> Event.fire single));
  Sched.run s;
  s

let test_spg_edges_and_colors () =
  let s = run_mixed_trace () in
  let g = Spg.of_trace (Sched.trace s) in
  let find src dst =
    List.find (fun e -> e.Spg.src = src && e.Spg.dst = dst) (Spg.edges g)
  in
  let quorum_edge = find 0 1 in
  check_bool "quorum edge green" true (quorum_edge.Spg.color = Spg.Green);
  check_int "quorum k" 2 quorum_edge.Spg.quorum_k;
  let single_edge = find 0 4 in
  check_bool "single edge red" true (single_edge.Spg.color = Spg.Red);
  let client_edge = find 9 0 in
  check_bool "client edge red" true (client_edge.Spg.color = Spg.Red);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3; 4; 9 ] (Spg.nodes g)

let test_audit_flags_single_waits () =
  let s = run_mixed_trace () in
  let violations = Spg.audit (Sched.trace s) in
  (* two violations: server->4 and client->0 *)
  check_int "two violations" 2 (List.length violations);
  let allowed = Spg.audit ~allow:(fun ~node -> node = 9) (Sched.trace s) in
  check_int "client exempted" 1 (List.length allowed);
  check_int "remaining is node 4 wait" 4 (List.hd allowed).Spg.v_peer;
  check_bool "not tolerant" false (Spg.is_fail_slow_tolerant (Sched.trace s))

let test_audit_pure_quorum_tolerant () =
  let s = make_sched ~trace:true () in
  let q = Event.quorum Event.Majority in
  let replies = List.map (fun peer -> Event.rpc_completion ~peer ()) [ 1; 2; 3 ] in
  List.iter (fun ev -> Event.add q ~child:ev) replies;
  List.iter Event.fire replies;
  Sched.spawn s ~node:0 (fun () -> Sched.wait s q);
  Sched.run s;
  check_bool "tolerant" true (Spg.is_fail_slow_tolerant (Sched.trace s))

let test_spg_dot_output () =
  let s = run_mixed_trace () in
  let dot = Spg.to_dot ~node_name:(fun n -> if n = 9 then "c1" else "s" ^ string_of_int n)
      (Spg.of_trace (Sched.trace s))
  in
  check_bool "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "client edge" true (contains "c1 -> s0" dot);
  check_bool "green quorum edge" true (contains "color=green" dot);
  check_bool "red single edge" true (contains "color=red" dot)

let test_many_coroutines_scale () =
  (* 10k coroutines each sleeping then firing into one big quorum *)
  let s = make_sched () in
  let n = 10_000 in
  let q = Event.quorum (Event.Count (n / 2)) in
  for i = 0 to n - 1 do
    let ev = Event.signal () in
    Event.add q ~child:ev;
    Sched.spawn s (fun () ->
        Sched.sleep s (Sim.Time.us (i mod 100));
        Event.fire ev)
  done;
  let done_ = ref false in
  Sched.spawn s (fun () ->
      Sched.wait s q;
      done_ := true);
  Sched.run s;
  check_bool "completed" true !done_

let test_trace_stats_by_label () =
  let engine = Sim.Engine.create () in
  let trace = Depfast.Trace.create ~enabled:true () in
  let s = Sched.create ~trace engine in
  Sched.spawn s ~node:0 (fun () ->
      let ev = Event.rpc_completion ~label:"append" ~peer:1 () in
      ignore (Sim.Engine.schedule engine ~delay:10 (fun () -> Event.fire ev));
      Sched.wait s ev;
      let ev2 = Event.signal ~label:"commit" () in
      ignore (Sim.Engine.schedule engine ~delay:25 (fun () -> Event.fire ev2));
      Sched.wait s ev2);
  Sched.run s;
  let stats = Depfast.Trace_stats.of_trace Depfast.Trace_stats.By_label trace in
  Alcotest.(check (list string)) "keys" [ "append"; "commit" ] (Depfast.Trace_stats.keys stats);
  match Depfast.Trace_stats.histogram stats "append" with
  | Some h ->
    check_int "one append wait" 1 (Sim.Hist.count h);
    check_int "waited 10us" 10 (Sim.Hist.max_value h)
  | None -> Alcotest.fail "missing label"

let test_trace_stats_by_edge () =
  let s = run_mixed_trace () in
  let stats = Depfast.Trace_stats.of_trace Depfast.Trace_stats.By_edge (Sched.trace s) in
  let keys = Depfast.Trace_stats.keys stats in
  check_bool "client->leader edge" true (List.mem "n9->n0" keys);
  check_bool "quorum edges" true (List.mem "n0->n1" keys);
  (* self-waits (the wal on node 0) produce no edge *)
  check_bool "no self edge" true (not (List.mem "n0->n0" keys))

let test_trace_stats_online () =
  let engine = Sim.Engine.create () in
  let trace = Depfast.Trace.create ~enabled:true () in
  let s = Sched.create ~trace engine in
  let stats = Depfast.Trace_stats.create Depfast.Trace_stats.By_node in
  Depfast.Trace_stats.attach stats trace;
  Sched.spawn s ~node:3 (fun () -> Sched.sleep s 50 |> ignore);
  Sched.spawn s ~node:3 (fun () ->
      let ev = Event.signal () in
      match Sched.wait_timeout s ev 100 with _ -> ());
  Sched.run s;
  check_bool "online records" true (Depfast.Trace_stats.histogram stats "n3" <> None);
  check_int "timeout counted" 1 (Depfast.Trace_stats.timeouts stats "n3")

(* online (attach) and offline (of_trace) aggregation fold the same
   columns, so they agree on every key, count and timeout *)
let test_trace_stats_online_matches_offline () =
  let engine = Sim.Engine.create () in
  let trace = Trace.create ~enabled:true () in
  let s = Sched.create ~trace engine in
  let kinds = [ Trace_stats.By_label; Trace_stats.By_node; Trace_stats.By_edge ] in
  let online =
    List.map
      (fun k ->
        let st = Trace_stats.create k in
        Trace_stats.attach st trace;
        st)
      kinds
  in
  for node = 0 to 3 do
    Sched.spawn s ~node ~name:(Printf.sprintf "w%d" node) (fun () ->
        for round = 1 to 3 do
          let q = Event.quorum ~label:"replicate" Event.Majority in
          List.iter
            (fun peer ->
              let ev = Event.rpc_completion ~peer () in
              Event.add q ~child:ev;
              ignore
                (Sim.Engine.schedule engine ~delay:((peer * 3) + round) (fun () -> Event.fire ev)))
            [ (node + 1) mod 4; (node + 2) mod 4; node ];
          Sched.wait s q;
          (* never fired: every one of these waits times out *)
          let label = if round = 2 then "" else "lone" in
          let lone = Event.rpc_completion ~label ~peer:((node + 3) mod 4) () in
          ignore (Sched.wait_timeout s lone (Sim.Time.us (5 * node)))
        done)
  done;
  Sched.run s;
  check_int "every wait traced" 24 (Trace.wait_count trace);
  List.iter2
    (fun kind on ->
      let off = Trace_stats.of_trace kind trace in
      let keys = Trace_stats.keys off in
      Alcotest.(check (list string)) "same keys" keys (Trace_stats.keys on);
      let summary st k =
        match Trace_stats.histogram st k with
        | Some h ->
          (Sim.Hist.count h, Sim.Hist.min_value h, Sim.Hist.max_value h, Trace_stats.timeouts st k)
        | None -> Alcotest.failf "no histogram for %s" k
      in
      List.iter
        (fun k ->
          let c, lo, hi, tmo = summary off k and c', lo', hi', tmo' = summary on k in
          check_int (k ^ " count") c c';
          check_int (k ^ " min") lo lo';
          check_int (k ^ " max") hi hi';
          check_int (k ^ " timeouts") tmo tmo')
        keys)
    kinds online;
  let by_label = Trace_stats.of_trace Trace_stats.By_label trace in
  Alcotest.(check (list string)) "label keys" [ "(unnamed)"; "lone"; "replicate" ]
    (Trace_stats.keys by_label);
  check_int "lone waits time out" 8 (Trace_stats.timeouts by_label "lone");
  check_int "unnamed waits time out" 4 (Trace_stats.timeouts by_label "(unnamed)");
  Alcotest.(check (list string)) "node keys" [ "n0"; "n1"; "n2"; "n3" ]
    (Trace_stats.keys (Trace_stats.of_trace Trace_stats.By_node trace));
  check_int "edge keys: two quorum peers and one lone peer per node" 12
    (List.length (Trace_stats.keys (Trace_stats.of_trace Trace_stats.By_edge trace)))

(* ------------------------------------------------------------------ *)
(* condvar / mutex edge cases: pin the current semantics *)

let test_condvar_broadcast_no_waiters () =
  let s = make_sched () in
  let cv = Condvar.create () in
  Condvar.broadcast cv;
  (* nobody was waiting: the broadcast is spent, not banked — a waiter
     arriving afterwards waits for the *next* broadcast *)
  let woke = ref false in
  Sched.spawn s (fun () ->
      Condvar.wait s cv;
      woke := true);
  Sched.spawn s (fun () ->
      Sched.yield s;
      Condvar.broadcast cv);
  Sched.run s;
  check_bool "waiter needed the second broadcast" true !woke

let test_condvar_capture_before_broadcast () =
  let s = make_sched () in
  let cv = Condvar.create () in
  (* the lost-wakeup-free idiom: capture the generation first, then a
     broadcast landing before the wait leaves the captured event fired *)
  let gen = Condvar.event cv in
  Condvar.broadcast cv;
  let woke = ref false in
  Sched.spawn s (fun () ->
      Sched.wait s gen;
      woke := true);
  Sched.run s;
  check_bool "pre-fired generation does not park" true !woke;
  check_int "no virtual time consumed" 0 (Sched.now s)

let test_mutex_unlock_unheld_raises () =
  let mu = Mutex.create () in
  (match Mutex.unlock mu with
  | () -> Alcotest.fail "unlock on an unheld mutex must raise"
  | exception Invalid_argument _ -> ());
  check_bool "still unlocked" false (Mutex.locked mu)

let test_mutex_unlock_from_non_owner () =
  (* the mutex tracks held-ness, not ownership: an unlock from a
     coroutine that never locked silently hands the section to the next
     waiter. This pins the permissive current behavior — catching such
     protocol misuse is the schedule checker's job, not the type's. *)
  let s = make_sched () in
  let mu = Mutex.create () in
  let entered_at = ref (-1) in
  Sched.spawn s ~name:"holder" (fun () ->
      Mutex.lock s mu;
      Sched.sleep s (Sim.Time.ms 5));
  Sched.spawn s ~name:"waiter" (fun () ->
      Sched.yield s;
      Mutex.lock s mu;
      entered_at := Sched.now s);
  Sched.spawn s ~name:"interloper" (fun () ->
      Sched.sleep s (Sim.Time.ms 1);
      Mutex.unlock mu);
  Sched.run s;
  check_int "waiter entered off the interloper's unlock" (Sim.Time.ms 1) !entered_at;
  check_bool "handoff left the mutex held" true (Mutex.locked mu)

(* ------------------------------------------------------------------ *)
(* Spg.audit dedup: one line per violation site, with an occurrence count *)

let audit_dedup_trace () =
  let engine = Sim.Engine.create () in
  let trace = Trace.create ~enabled:true () in
  let s = Sched.create ~trace engine in
  Sched.spawn s ~node:9 ~name:"client" (fun () ->
      for _ = 1 to 3 do
        let reply = Event.rpc_completion ~label:"req" ~peer:0 () in
        ignore
          (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) (fun () ->
               Event.fire reply));
        (* depfast-lint: allow red-exposure — the wait under test *)
        Sched.wait s reply
      done);
  Sched.run s;
  trace

let test_audit_dedup_counts_occurrences () =
  let trace = audit_dedup_trace () in
  match Spg.audit trace with
  | [ v ] ->
    check_int "three occurrences collapsed into one site" 3 v.Spg.v_count;
    check_int "stalling peer" 0 v.Spg.v_peer
  | vs -> Alcotest.failf "expected one deduplicated site, got %d" (List.length vs)

let test_audit_dedup_escape_hatch () =
  let trace = audit_dedup_trace () in
  let raw = Spg.audit ~dedup:false trace in
  check_int "raw list keeps every occurrence" 3 (List.length raw);
  List.iter (fun v -> check_int "raw entries count 1 each" 1 v.Spg.v_count) raw

(* ------------------------------------------------------------------ *)
(* the parking slot: one slot per coroutine, reused by every wait; a
   park that ends without its fire takes its wake off the event *)

(* a monitor that logs every hook, in order *)
let logging_monitor s =
  let log = ref [] in
  let add x = log := x :: !log in
  Sched.set_monitor s
    (Some
       {
         Sched.on_spawn = (fun ~cid:_ ~node:_ ~name:_ -> add "spawn");
         on_park = (fun ~cid:_ ~node:_ ~name:_ _ -> add "park");
         on_wake =
           (fun ~cid:_ _ w ->
             add (match w with Sched.Wake_fire -> "wake:fire" | Sched.Wake_timeout -> "wake:timeout"));
         on_resume = (fun ~cid:_ -> add "resume");
         on_done = (fun ~cid:_ -> add "done");
       });
  fun () -> List.rev !log

let at s ms f = ignore (Sim.Engine.schedule (Sched.engine s) ~delay:(Sim.Time.ms ms) f)

let test_late_fire_after_timeout_other_event () =
  let s = make_sched () in
  let old_ev = Event.signal () and next = Event.signal () in
  let outcome = ref Sched.Ready and resumed_at = ref (-1) in
  Sched.spawn s (fun () ->
      outcome := Sched.wait_timeout s old_ev (Sim.Time.ms 1);
      Sched.wait s next;
      resumed_at := Sched.now s);
  at s 2 (fun () -> Event.fire old_ev);
  at s 5 (fun () -> Event.fire next);
  Sched.run s;
  check_bool "first park timed out" true (!outcome = Sched.Timed_out);
  check_int "the old event's late fire did not end the new park" (Sim.Time.ms 5) !resumed_at

let test_late_fire_after_timeout_same_event () =
  (* a condvar generation that nobody broadcast is the same event on the
     second wait: the first park's timeout took its wake off it *)
  let s = make_sched () in
  let hooks = logging_monitor s in
  let cv = Condvar.create () in
  let outcomes = ref [] and resumed_at = ref (-1) in
  Sched.spawn s (fun () ->
      let o1 = Condvar.wait_timeout s cv (Sim.Time.ms 1) in
      let o2 = Condvar.wait_timeout s cv (Sim.Time.ms 10) in
      outcomes := [ o1; o2 ];
      resumed_at := Sched.now s);
  at s 3 (fun () -> Condvar.broadcast cv);
  Sched.run s;
  check_bool "timed out, then ready" true (!outcomes = [ Sched.Timed_out; Sched.Ready ]);
  check_int "resumed by the broadcast" (Sim.Time.ms 3) !resumed_at;
  Alcotest.(check (list string))
    "hooks in order, one wakeup per park"
    [ "spawn"; "park"; "wake:timeout"; "resume"; "park"; "wake:fire"; "resume"; "done" ]
    (hooks ())

let test_fire_and_timeout_same_instant_explore () =
  (* with a chooser the fire's timer and the wait's timeout are hoisted
     into one choice set, and the loser still runs: either order must
     resume the coroutine exactly once *)
  let run_with choose =
    let engine = Sim.Engine.create () in
    Sim.Engine.set_chooser engine choose;
    let s = Sched.create engine in
    let hooks = logging_monitor s in
    let ev = Event.signal () in
    let outcomes = ref [] in
    ignore (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 5) (fun () -> Event.fire ev));
    Sched.spawn s (fun () -> outcomes := Sched.wait_timeout s ev (Sim.Time.ms 5) :: !outcomes);
    Sched.run s;
    check_int "resumed exactly once" 1 (List.length !outcomes);
    Alcotest.(check (list string))
      "one wake, one resume" [ "spawn"; "park"; "wake"; "resume"; "done" ]
      (List.map (fun h -> List.hd (String.split_on_char ':' h)) (hooks ()));
    List.hd !outcomes
  in
  let first = run_with (fun _ _ -> 0) and last = run_with (fun _ n -> n - 1) in
  check_bool "fire first: ready" true (first = Sched.Ready);
  check_bool "timeout first: timed out" true (last = Sched.Timed_out)

(* the event's waiter slot: the first park takes it, later ones queue
   behind it, and a timeout frees it — never out of registration order *)

let test_slot_freed_keeps_order () =
  (* a times out out of the slot while b and c wait in the list; d parks
     after: the slot is free but b and c came first, so d queues *)
  let s = make_sched () in
  let ev = Event.signal () in
  let order = ref [] in
  let waiter name ms =
    Sched.spawn s (fun () ->
        if Sched.wait_timeout s ev (Sim.Time.ms ms) = Sched.Ready then order := name :: !order)
  in
  waiter "a" 1;
  waiter "b" 10;
  waiter "c" 10;
  at s 2 (fun () -> waiter "d" 10);
  at s 3 (fun () -> Event.fire ev);
  Sched.run s;
  Alcotest.(check (list string)) "registration order" [ "b"; "c"; "d" ] (List.rev !order)

let test_slot_repark_same_event () =
  let s = make_sched () in
  let ev = Event.signal () in
  let outcomes = ref [] and resumes = ref 0 in
  Sched.spawn s (fun () ->
      outcomes := [ Sched.wait_timeout s ev (Sim.Time.ms 1) ];
      Sched.wait s ev;
      incr resumes;
      Sched.sleep s (Sim.Time.ms 10);
      incr resumes);
  at s 4 (fun () -> Event.fire ev);
  Sched.run s;
  check_bool "first park timed out" true (!outcomes = [ Sched.Timed_out ]);
  check_int "the fire resumed the second park once" 2 !resumes;
  check_int "and nothing else ran it" (Sim.Time.ms 14) (Sched.now s)

let test_slot_fire_vs_hoisted_timeouts () =
  (* explore mode: the fire and two same-deadline timeouts are hoisted
     into one choice set; one waiter's wake holds the slot, the other's
     is consed behind it. Whatever the order, each resumes exactly once *)
  let run_with choose =
    let engine = Sim.Engine.create () in
    Sim.Engine.set_chooser engine choose;
    let s = Sched.create engine in
    let ev = Event.signal () in
    let resumed = Array.make 2 0 in
    ignore (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 5) (fun () -> Event.fire ev));
    for i = 0 to 1 do
      Sched.spawn s (fun () ->
          ignore (Sched.wait_timeout s ev (Sim.Time.ms 5));
          resumed.(i) <- resumed.(i) + 1)
    done;
    Sched.run s;
    Array.iteri (fun i n -> check_int (Printf.sprintf "waiter %d resumed once" i) 1 n) resumed
  in
  run_with (fun _ _ -> 0);
  run_with (fun _ n -> n - 1);
  run_with (fun _ n -> n / 2)

let test_slot_stale_hoisted_timeout () =
  (* explore mode: the fire and the timeout tie and are hoisted together;
     the fire runs, and the resume runs before the now-stale timeout, so
     the coroutine re-parks with a new timed wait, re-arming its one
     timer, while the old arm's thunk is still queued. That thunk must
     not end the new wait: it times out at its own deadline, once *)
  let engine = Sim.Engine.create () in
  let calls = ref 0 and first_set = ref 0 in
  Sim.Engine.set_chooser engine (fun _ n ->
      incr calls;
      if !calls = 1 then begin
        first_set := n;
        0 (* the fire, scheduled first *)
      end
      else n - 1 (* the resume, posted last *));
  let s = Sched.create engine in
  let hooks = logging_monitor s in
  let ev = Event.signal () and later = Event.signal () in
  let log = ref [] in
  ignore (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 5) (fun () -> Event.fire ev));
  Sched.spawn s (fun () ->
      let o = Sched.wait_timeout s ev (Sim.Time.ms 5) in
      log := (o, Sched.now s) :: !log;
      let o = Sched.wait_timeout s later (Sim.Time.ms 10) in
      log := (o, Sched.now s) :: !log);
  Sched.run s;
  check_int "fire and timeout hoisted together" 2 !first_set;
  check_bool "ready at the fire, then timed out at the new deadline, each once" true
    (List.rev !log = [ (Sched.Ready, Sim.Time.ms 5); (Sched.Timed_out, Sim.Time.ms 15) ]);
  Alcotest.(check (list string))
    "one wakeup per park"
    [ "spawn"; "park"; "wake:fire"; "resume"; "park"; "wake:timeout"; "resume"; "done" ]
    (hooks ())

(* ------------------------------------------------------------------ *)
(* the context pool: a finished coroutine's context serves a later spawn,
   and nothing an earlier coroutine's parks left behind reaches it *)

(* words a spawn allocates, given a prebuilt body and no options: none
   when it reuses a pooled context *)
let spawn_words s body =
  let w0 = Gc.minor_words () in
  Sched.spawn s body;
  Gc.minor_words () -. w0

(* a first coroutine times out on [old_ev] and ends; a second one reuses
   its context and waits on [next]. The old event's late fire must not
   resume it, whether the old park's fire wake held the event's waiter
   slot or, the slot being taken, its observer list: the timeout dropped
   it from either *)
let test_pool_late_fire_after_reuse () =
  List.iter
    (fun slot_taken ->
      let s = make_sched () in
      let old_ev = Event.signal () and next = Event.signal () in
      if slot_taken then Event.on_fire old_ev ignore;
      let first = ref Sched.Ready in
      Sched.spawn s (fun () -> first := Sched.wait_timeout s old_ev (Sim.Time.ms 1));
      Sched.run s;
      check_bool "the first wait timed out" true (!first = Sched.Timed_out);
      let resumed = ref [] in
      let body () =
        Sched.wait s next;
        resumed := Sched.now s :: !resumed
      in
      Alcotest.(check (float 0.001)) "the second coroutine reuses the context" 0.0
        (spawn_words s body);
      at s 2 (fun () -> Event.fire old_ev);
      at s 5 (fun () -> Event.fire next);
      Sched.run s;
      Alcotest.(check (list int))
        (Printf.sprintf "resumed once, by its own event (slot taken: %b)" slot_taken)
        [ Sim.Time.ms 6 ] !resumed)
    [ false; true ]

(* explore mode: the first coroutine's fire and timeout tie with a timer
   that spawns a second coroutine. The chooser runs the fire, the first
   coroutine to its end, the spawn (which reuses the context) and the
   second coroutine's timed wait (which re-arms the context's timer), all
   before the first wait's stale timeout thunk. That thunk must spare the
   new wait: it times out at its own deadline *)
let test_pool_stale_hoisted_timeout () =
  let engine = Sim.Engine.create () in
  let fire_tag = Sim.Engine.Link (1, 1) and spawn_tag = Sim.Engine.Link (2, 2) in
  let first_done = ref false and tied = ref 0 in
  let index_of tags n tag =
    let rec go i = if i >= n then -1 else if tags.(i) = tag then i else go (i + 1) in
    go 0
  in
  Sim.Engine.set_chooser engine (fun tags n ->
      let fire = index_of tags n fire_tag and spawner = index_of tags n spawn_tag in
      if fire >= 0 then begin
        tied := n;
        fire
      end
      else if spawner >= 0 && !first_done then spawner
      else n - 1 (* the newest posted work *));
  let s = Sched.create engine in
  let hooks = logging_monitor s in
  let ev = Event.signal () and later = Event.signal () in
  let log = ref [] in
  let waiter ev span () =
    let o = Sched.wait_timeout s ev (Sim.Time.ms span) in
    log := (o, Sched.now s) :: !log;
    first_done := true
  in
  ignore
    (Sim.Engine.schedule_tag engine ~delay:(Sim.Time.ms 5) fire_tag (fun () -> Event.fire ev));
  ignore
    (Sim.Engine.schedule_tag engine ~delay:(Sim.Time.ms 5) spawn_tag (fun () ->
         Sched.spawn s (waiter later 10)));
  Sched.spawn s (waiter ev 5);
  Sched.run s;
  check_int "fire, spawn and timeout hoisted together" 3 !tied;
  check_bool "ready at the fire, then timed out at the new deadline" true
    (List.rev !log = [ (Sched.Ready, Sim.Time.ms 5); (Sched.Timed_out, Sim.Time.ms 15) ]);
  Alcotest.(check (list string))
    "one wakeup per park"
    [ "spawn"; "park"; "wake:fire"; "resume"; "done"; "spawn"; "park"; "wake:timeout"; "resume";
      "done" ]
    (hooks ())

(* a pooled context keeps its last name, and nothing else of its
   coroutine; [reset] keeps the context pooled and lets its name go *)
let[@inline never] spawn_named s weak =
  let name = String.concat "" [ "pooled"; "-name" ] in
  Weak.set weak 0 (Some name);
  Sched.spawn s ~name ignore

let test_pool_reset_empties () =
  let s = make_sched () in
  let weak = Weak.create 1 in
  spawn_named s weak;
  Sched.run s;
  Gc.full_major ();
  check_bool "the pooled context holds its name" true (Weak.check weak 0);
  Sim.Engine.reset (Sched.engine s);
  Sched.reset s;
  Gc.full_major ();
  check_bool "reset let the pooled context go" false (Weak.check weak 0);
  (* the scheduler itself stays reachable to the end *)
  ignore (Sys.opaque_identity s)

(* [reset] pools every context, parked ones too: one parked in its
   event's waiter slot, one behind the taken slot of another event (its
   fire wake consed onto that event's list) and one whose charge a
   station holds. Then the old events fire and the old held wake is
   called, before the new coroutines' own events: none of them resumes
   an old coroutine or a new one. The new coroutines reuse the three
   contexts (a spawn builds only its fire wake, where a context alone is
   15 words), ids restart at 1, and each resumes once, by its own event *)
let test_reset_reclaims_parked () =
  let s = make_sched () in
  let cids = ref [] in
  Sched.set_monitor s
    (Some
       {
         Sched.on_spawn = (fun ~cid ~node:_ ~name:_ -> cids := cid :: !cids);
         on_park = (fun ~cid:_ ~node:_ ~name:_ _ -> ());
         on_wake = (fun ~cid:_ _ _ -> ());
         on_resume = (fun ~cid:_ -> ());
         on_done = (fun ~cid:_ -> ());
       });
  let in_slot = Event.signal () and behind = Event.signal () in
  Event.on_fire behind ignore;
  let station = Cluster.Station.create s ~servers:1 ~name:"cpu" () in
  let held = ref ignore and old_resumed = ref 0 in
  Sched.spawn s (fun () ->
      Sched.wait s in_slot;
      incr old_resumed);
  Sched.spawn s (fun () ->
      Sched.wait s behind;
      incr old_resumed);
  Sched.spawn s (fun () ->
      held := Sched.wake s;
      Cluster.Station.run station ~work:(Sim.Time.ms 100);
      incr old_resumed);
  Sched.run ~until:(Sim.Time.ms 1) s;
  check_int "the station holds the charge" 1 (Cluster.Station.busy_servers station);
  Sim.Engine.reset (Sched.engine s);
  Sched.reset s;
  cids := [];
  let next = Array.init 3 (fun _ -> Event.signal ()) and resumed = ref [] in
  for i = 0 to 2 do
    let body () =
      Sched.wait s next.(i);
      resumed := (i, Sched.now s) :: !resumed
    in
    let words = spawn_words s body in
    if words >= 15.0 then Alcotest.failf "spawn %d built a context: %.1f words" i words
  done;
  at s 1 (fun () ->
      Event.fire in_slot;
      Event.fire behind;
      !held ());
  at s 5 (fun () -> Array.iter Event.fire next);
  Sched.run s;
  Alcotest.(check (list int)) "ids restart at 1" [ 1; 2; 3 ] (List.rev !cids);
  check_int "no old coroutine resumed" 0 !old_resumed;
  Alcotest.(check (list (pair int int)))
    "each new coroutine resumed once, by its own event"
    [ (0, Sim.Time.ms 5); (1, Sim.Time.ms 5); (2, Sim.Time.ms 5) ]
    (List.sort compare !resumed)

let[@inline never] wait_on_fresh_event s weak =
  let ev = Event.signal () in
  Weak.set weak 0 (Some ev);
  Sched.spawn s (fun () -> Sched.wait s ev);
  at s 1 (fun () -> Event.fire ev)

let test_pool_forgets_last_event () =
  let s = make_sched () in
  let weak = Weak.create 1 in
  wait_on_fresh_event s weak;
  Sched.run s;
  Gc.full_major ();
  check_bool "a finished coroutine's last event is garbage" false (Weak.check weak 0);
  (* the scheduler, and its pooled context, stay reachable to the end *)
  ignore (Sys.opaque_identity s)

(* Allocation guard: exact minor words per spawn+park+fire+resume cycle,
   untimed and timed (the fire wins and cancels the timeout). Closure-built
   waits cost 95.4 and 120.4 words here (108 in the benchmark ladder's
   core.switch_ns_words, which also allocates the event); the parking slot
   brought them to 65.4 and 82.4, the engine's allocation-free
   containers (ready ring, intrusive timer wheel) to 59.7 and 73.8, the
   event's waiter slot with an option-free timer slot to 57.9 and 69.9
   (57.7 and 69.8 later), and a context built without [let rec] (which
   allocated the record twice) whose timeout wake is built at spawn and
   re-arms one owned timer, with no closure per timed park, to 50.7 and
   56.8; a pooled context, reused with its wakes and its timer, and a
   spawn that posts the context's own wake to 12.2 for both: the
   continuation and the body closure. The first batch fills the pool
   (and grows the engine's ring and, traced, the trace's), the second
   is measured. The ceilings sit between the last two, so a change that
   brings back a context per spawn, a per-park fire or timeout closure,
   a per-timer entry, a per-post queue cell or a boxed timer handle
   fails here. *)
let cycle_words ?(traced = false) ~timed () =
  let s = make_sched ~trace:traced () in
  let n = 1_000 in
  let batch () =
    let evs = Array.init n (fun _ -> Event.signal ()) in
    let body ev () =
      if timed then ignore (Sched.wait_timeout s ev (Sim.Time.ms 1)) else Sched.wait s ev
    in
    Gc.minor ();
    let w0 = Gc.minor_words () in
    Array.iter (fun ev -> Sched.spawn s (body ev)) evs;
    Sched.run ~until:(Sched.now s) s;
    Array.iter Event.fire evs;
    Sched.run s;
    Gc.minor ();
    check_int "every timeout cancelled" 0 (Sim.Engine.pending (Sched.engine s));
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  ignore (batch ());
  if traced then begin
    check_int "first batch traced" n (Trace.wait_count (Sched.trace s));
    Trace.clear (Sched.trace s)
  end;
  let words = batch () in
  if traced then check_int "measured batch traced" n (Trace.wait_count (Sched.trace s));
  words

(* a traced wait writes the trace's columns in place, so once the ring has
   grown it costs no more than an untraced one: no per-wait record *)
let test_alloc_cycle () =
  let guard what ceiling words =
    if words > ceiling then Alcotest.failf "%s cycle: %.1f words > ceiling %.0f" what words ceiling
  in
  guard "untimed" 16.0 (cycle_words ~timed:false ());
  guard "timed" 16.0 (cycle_words ~timed:true ());
  guard "traced untimed" 16.0 (cycle_words ~traced:true ~timed:false ());
  guard "traced timed" 16.0 (cycle_words ~traced:true ~timed:true ())

(* Allocation guard: minor words per [yield] and per [sleep] of a
   running coroutine, once the engine's ring has grown and the
   coroutine's timer entry exists, both explore mode (a chooser
   installed, as the checker runs them) and not. A yield built a resume
   closure per call, and a sleep one plus a fresh timer entry and its
   boxed span: 15.0 and 25.0 words here, in either mode. Parking the
   coroutine on the never-fired nap event, ended by its own posted wake
   or its own re-armed timer, leaves the continuation: 2.0 and 2.0. The
   ceiling sits between, so a closure or an entry per call fails here *)
let nap_words ~explore nap =
  let s = make_sched () in
  if explore then Sim.Engine.set_chooser (Sched.engine s) (fun _ n -> n - 1);
  let n = 1_000 and words = ref 0.0 in
  Sched.spawn s (fun () ->
      for _ = 1 to 64 do
        nap s
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        nap s
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n);
  Sched.run s;
  !words

(* a nap is invisible: no trace record and no monitor hook *)
let test_nap_untraced () =
  let s = make_sched ~trace:true () in
  let hooks = logging_monitor s in
  Sched.spawn s (fun () ->
      Sched.yield s;
      Sched.sleep s (Sim.Time.ms 1));
  Sched.run s;
  check_int "no wait traced" 0 (Trace.wait_count (Sched.trace s));
  Alcotest.(check (list string)) "no park or wake seen" [ "spawn"; "done" ] (hooks ())

let test_alloc_nap () =
  List.iter
    (fun explore ->
      let guard what words =
        if words > 5.0 then
          Alcotest.failf "%s%s: %.1f words > ceiling 5" what
            (if explore then " (explore mode)" else "")
            words
      in
      guard "yield" (nap_words ~explore Sched.yield);
      guard "sleep" (nap_words ~explore (fun s -> Sched.sleep s (Sim.Time.us 10))))
    [ false; true ]

(* two waiters on one condvar: the first's wake takes the event's waiter
   slot, the second's is consed behind it. Both time out, and the event
   holds nothing of either, as bare as a fresh condvar's (a park once left
   a generation-stamped closure there, which reached its context and the
   scheduler, and an idle leader's condvar gathered one per timed-out
   wait); the second coroutine's next park, on another event, is not
   ended by a later broadcast *)
let test_timed_out_waiter_leaves_nothing () =
  let s = make_sched () in
  let cv = Condvar.create () and other = Event.signal () in
  let log = ref [] in
  let note who o = log := (who, o = Sched.Ready, Sched.now s) :: !log in
  Sched.spawn s (fun () -> note "first" (Condvar.wait_timeout s cv (Sim.Time.ms 2)));
  Sched.spawn s (fun () ->
      note "second" (Condvar.wait_timeout s cv (Sim.Time.ms 1));
      Sched.wait s other;
      note "second" Sched.Ready);
  at s 5 (fun () -> Condvar.broadcast cv);
  at s 8 (fun () -> Event.fire other);
  Sched.run ~until:(Sim.Time.ms 3) s;
  let bare = Obj.reachable_words (Obj.repr (Condvar.event (Condvar.create ()))) in
  check_int "the event holds no wake" bare (Obj.reachable_words (Obj.repr (Condvar.event cv)));
  Sched.run s;
  Alcotest.(check (list (triple string bool int)))
    "both timed out; the second resumed by its own event alone"
    [ ("second", false, Sim.Time.ms 1); ("first", false, Sim.Time.ms 2);
      ("second", true, Sim.Time.ms 8) ]
    (List.rev !log)

(* a generation [Condvar.event] handed out is fired by the next broadcast
   and stays fired, though an unlent event is re-armed in place: here the
   captured one is the event the first broadcast re-armed, a waiter parks
   on it through [Condvar.wait], and later waiters park on a fresh one *)
let test_condvar_lent_generation_fires () =
  let s = make_sched () in
  let cv = Condvar.create () in
  let woke = ref [] in
  let round name =
    Sched.spawn s (fun () ->
        Condvar.wait s cv;
        woke := (name, Sched.now s) :: !woke);
    at s 1 (fun () -> Condvar.broadcast cv);
    Sched.run s
  in
  round "a";
  let gen = Condvar.event cv in
  check_bool "the captured generation is pending" false (Event.is_ready gen);
  round "b";
  check_bool "the next broadcast fired it" true (Event.is_ready gen);
  round "c";
  check_bool "and it stays fired" true (Event.is_ready gen);
  check_bool "later waiters park on a fresh event" true (Condvar.event cv != gen);
  Alcotest.(check (list (pair string int)))
    "each waiter woken by its own broadcast"
    [ ("a", Sim.Time.ms 1); ("b", Sim.Time.ms 2); ("c", Sim.Time.ms 3) ]
    (List.rev !woke)

(* Allocation guard: minor words per warm broadcast of a condvar that two
   coroutines wait on in a loop, their two resumes and their two re-parks.
   A broadcast built a fresh event (10 words) and the second park a
   generation-stamped closure plus its cons: 22.0 words here. Re-arming
   the event in place and consing the context's own wake leave the two
   continuations and the cons: 7.0. The ceiling sits between, so a fresh
   event per broadcast or a closure per park fails here *)
let broadcast_words () =
  let s = make_sched () in
  let cv = Condvar.create () in
  let rec waiter () =
    Condvar.wait s cv;
    waiter ()
  in
  Sched.spawn s waiter;
  Sched.spawn s waiter;
  let cycle () =
    Condvar.broadcast cv;
    Sched.run s
  in
  for _ = 1 to 64 do
    cycle ()
  done;
  let n = 1_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    cycle ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_alloc_broadcast () =
  let words = broadcast_words () in
  if words > 12.0 then Alcotest.failf "broadcast cycle: %.1f words > ceiling 12" words

(* a held park ([Station.run]) is seen and traced as a wait on the
   station's event: park, a fire wake and a resume, then one record
   labelled with the station's name whose window is the job's service *)
let test_held_park_hooks_and_trace () =
  let s = make_sched ~trace:true () in
  let hooks = logging_monitor s in
  let st = Cluster.Station.create s ~servers:1 ~name:"cpu7" () in
  Sched.spawn s ~node:7 ~name:"charger" (fun () ->
      Sched.sleep s (Sim.Time.ms 5);
      Cluster.Station.run st ~work:100);
  Sched.run s;
  Alcotest.(check (list string))
    "hooks as for a wait on a fired event"
    [ "spawn"; "park"; "wake:fire"; "resume"; "done" ]
    (hooks ());
  match Trace.waits (Sched.trace s) with
  | [ w ] ->
    Alcotest.(check string) "labelled with the station" "cpu7" (Trace.event_label w);
    check_bool "a basic event, 1 of 1" true
      (Trace.event_kind w = Event.Signal && w.Trace.quorum_k = 1 && w.Trace.quorum_n = 1);
    check_int "parked when charged" (Sim.Time.ms 5) w.Trace.t_start;
    check_int "resumed at the completion" (Sim.Time.ms 5 + 100) w.Trace.t_end;
    check_bool "ready, on the charging coroutine" true
      (w.Trace.outcome = Trace.Ready && w.Trace.node = 7 && w.Trace.coroutine = "charger")
  | ws -> Alcotest.failf "expected one traced wait, got %d" (List.length ws)

(* [reset] (after the engine's) forgets every coroutine, even one whose
   exception aborted the run mid-body: ids restart at 1 and no coroutine
   is current *)
let test_reset_after_abort () =
  let s = make_sched () in
  let cids = ref [] in
  Sched.set_monitor s
    (Some
       {
         Sched.on_spawn = (fun ~cid ~node:_ ~name:_ -> cids := cid :: !cids);
         on_park = (fun ~cid:_ ~node:_ ~name:_ _ -> ());
         on_wake = (fun ~cid:_ _ _ -> ());
         on_resume = (fun ~cid:_ -> ());
         on_done = (fun ~cid:_ -> ());
       });
  Sched.spawn s ~name:"first" ignore;
  Sched.spawn s ~name:"aborts" (fun () -> failwith "abort");
  (match Sched.run s with () -> Alcotest.fail "no abort" | exception Failure _ -> ());
  Sim.Engine.reset (Sched.engine s);
  Sched.reset s;
  Alcotest.(check string) "no coroutine current" "" (Sched.current_coroutine s);
  cids := [];
  Sched.spawn s ~name:"again" ignore;
  Sched.run s;
  Alcotest.(check (list int)) "ids restart at 1" [ 1 ] !cids

(* Explore mode (a chooser installed): a timed wait's timeout carries its
   coroutine's tag, and a fire that beats the timeout cancels it. The
   cancel must drop the tag with the timer. One wait at a time, so every
   step is a singleton the chooser never sees; the second batch is
   measured, after the engine's arrays have grown. Leaving each tag's
   binding in a seq-keyed table until the run ended cost 81.0 minor and
   7.0 promoted words per wait here; dropping the tag with its timer,
   77.0 and 0.0; parking in the event's waiter slot with an option-free
   timer slot, 73.0 minor; a context built once, timeout wake included,
   re-arming its own timer, 60.0; the context pooled and reused, 16.0.
   The ceilings sit between the last two. *)
let explore_timed_words () =
  let s = make_sched () in
  let e = Sched.engine s in
  Sim.Engine.set_chooser e (fun _ _ -> 0);
  let batch () =
    let evs = Array.init 1_000 (fun _ -> Event.signal ()) in
    Gc.minor ();
    let s0 = Gc.quick_stat () in
    Array.iter
      (fun ev ->
        Sched.spawn s (fun () -> ignore (Sched.wait_timeout s ev (Sim.Time.ms 1)));
        Sched.run ~until:(Sched.now s) s;
        Event.fire ev;
        Sched.run ~until:(Sched.now s) s)
      evs;
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    check_int "every timeout cancelled" 0 (Sim.Engine.pending e);
    let per f = (f s1 -. f s0) /. float_of_int (Array.length evs) in
    (per (fun s -> s.Gc.minor_words), per (fun s -> s.Gc.promoted_words))
  in
  ignore (batch ());
  batch ()

let test_alloc_explore_timed () =
  let minor, promoted = explore_timed_words () in
  let guard what ceiling words =
    if words > ceiling then
      Alcotest.failf "%s words per early-firing timed wait: %.1f > ceiling %.1f" what words ceiling
  in
  guard "minor" 20.0 minor;
  guard "promoted" 3.5 promoted

let suite =
  [
    ( "sched.coroutine",
      [
        Alcotest.test_case "spawn runs" `Quick test_spawn_runs;
        Alcotest.test_case "sleep advances time" `Quick test_sleep_advances_time;
        Alcotest.test_case "wait resumes on fire" `Quick test_wait_fired_later;
        Alcotest.test_case "wait on ready event" `Quick test_wait_already_ready;
        Alcotest.test_case "wait timeout expires" `Quick test_wait_timeout_expires;
        Alcotest.test_case "fire beats timeout" `Quick test_wait_timeout_beaten_by_fire;
        Alcotest.test_case "quorum wait ignores straggler" `Quick test_quorum_wait_coroutines;
        Alcotest.test_case "yield interleaves" `Quick test_yield_interleaving;
        Alcotest.test_case "spawn_here inherits node" `Quick test_spawn_here_inherits_node;
        Alcotest.test_case "timer event" `Quick test_timer_event;
        Alcotest.test_case "10k coroutines" `Quick test_many_coroutines_scale;
      ] );
    ( "sched.slot",
      [
        Alcotest.test_case "late fire after timeout, other event" `Quick
          test_late_fire_after_timeout_other_event;
        Alcotest.test_case "late fire after timeout, same event; hook order" `Quick
          test_late_fire_after_timeout_same_event;
        Alcotest.test_case "fire and timeout tie under a chooser" `Quick
          test_fire_and_timeout_same_instant_explore;
        Alcotest.test_case "freed waiter slot keeps registration order" `Quick
          test_slot_freed_keeps_order;
        Alcotest.test_case "re-park on the same event resumes once" `Quick
          test_slot_repark_same_event;
        Alcotest.test_case "fire vs hoisted timeouts resume once" `Quick
          test_slot_fire_vs_hoisted_timeouts;
        Alcotest.test_case "stale hoisted timeout spares the re-armed wait" `Quick
          test_slot_stale_hoisted_timeout;
        Alcotest.test_case "reused context ignores the old event's late fire" `Quick
          test_pool_late_fire_after_reuse;
        Alcotest.test_case "stale hoisted timeout spares a reused context" `Quick
          test_pool_stale_hoisted_timeout;
        Alcotest.test_case "reset empties the pool" `Quick test_pool_reset_empties;
        Alcotest.test_case "reset reclaims parked contexts" `Quick test_reset_reclaims_parked;
        Alcotest.test_case "finished coroutine forgets its last event" `Quick
          test_pool_forgets_last_event;
        Alcotest.test_case "allocation guard" `Quick test_alloc_cycle;
        Alcotest.test_case "explore-mode timed waits drop their tags" `Quick
          test_alloc_explore_timed;
        Alcotest.test_case "yield and sleep are untraced" `Quick test_nap_untraced;
        Alcotest.test_case "yield and sleep allocate no closure or entry" `Quick
          test_alloc_nap;
        Alcotest.test_case "a timed-out second waiter leaves nothing on the event" `Quick
          test_timed_out_waiter_leaves_nothing;
        Alcotest.test_case "broadcast and re-park allocate no event or closure" `Quick
          test_alloc_broadcast;
        Alcotest.test_case "reset after an aborted run" `Quick test_reset_after_abort;
        Alcotest.test_case "held park: hooks and trace record" `Quick
          test_held_park_hooks_and_trace;
      ] );
    ( "sched.edge-cases",
      [
        Alcotest.test_case "broadcast with zero waiters" `Quick
          test_condvar_broadcast_no_waiters;
        Alcotest.test_case "capture before broadcast" `Quick
          test_condvar_capture_before_broadcast;
        Alcotest.test_case "a lent generation is fired by the next broadcast" `Quick
          test_condvar_lent_generation_fires;
        Alcotest.test_case "unlock unheld raises" `Quick test_mutex_unlock_unheld_raises;
        Alcotest.test_case "unlock from non-owner" `Quick test_mutex_unlock_from_non_owner;
      ] );
    ( "sched.trace",
      [
        Alcotest.test_case "quorum arity recorded" `Quick test_trace_records_quorum_arity;
      ] );
    ( "spg.dedup",
      [
        Alcotest.test_case "occurrence counting" `Quick test_audit_dedup_counts_occurrences;
        Alcotest.test_case "~dedup:false escape hatch" `Quick test_audit_dedup_escape_hatch;
      ] );
    ( "trace_stats",
      [
        Alcotest.test_case "by label" `Quick test_trace_stats_by_label;
        Alcotest.test_case "by edge" `Quick test_trace_stats_by_edge;
        Alcotest.test_case "online subscription" `Quick test_trace_stats_online;
        Alcotest.test_case "online matches offline" `Quick
          test_trace_stats_online_matches_offline;
      ] );
    ( "spg",
      [
        Alcotest.test_case "edges and colors" `Quick test_spg_edges_and_colors;
        Alcotest.test_case "audit flags single waits" `Quick test_audit_flags_single_waits;
        Alcotest.test_case "pure quorum tolerant" `Quick test_audit_pure_quorum_tolerant;
        Alcotest.test_case "dot output" `Quick test_spg_dot_output;
      ] );
  ]
