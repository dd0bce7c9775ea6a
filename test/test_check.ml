(* Tests for the schedule-space checker: chooser plumbing, DPOR
   persistent sets, the sanitizer, net choice mode, exploration results,
   and the static-certificate cross-check. The key contract under test:
   the deliberately-broken fixture is invisible to a single
   (program-order) run and caught only by exploration. *)

module E = Check.Explore
module F = Analysis.Finding

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let budget ?(schedules = 500) () =
  { E.default_budget with E.max_schedules = schedules }

let scenario name =
  match Check.Registry.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

let has_rule rule fs = List.exists (fun f -> f.F.rule = rule) fs

(* ------------------------------------------------------------------ *)
(* engine chooser: the decision index selects among enabled transitions *)

let order_with pick =
  let engine = Sim.Engine.create () in
  let sched = Depfast.Sched.create engine in
  let order = ref [] in
  Sim.Engine.set_chooser engine pick;
  for i = 1 to 2 do
    Depfast.Sched.spawn sched ~node:i
      ~name:(Printf.sprintf "w%d" i)
      (fun () -> order := i :: !order)
  done;
  Depfast.Sched.run sched;
  List.rev !order

let test_chooser_controls_order () =
  Alcotest.(check (list int)) "default order" [ 1; 2 ] (order_with (fun _ _ -> 0));
  Alcotest.(check (list int)) "alternative decision flips it" [ 2; 1 ]
    (order_with (fun _ n -> n - 1))

(* ------------------------------------------------------------------ *)
(* persistent sets: conflict closure over node footprints *)

let test_persistent_set_independence () =
  let tags = [| Sim.Engine.On_node 0; Sim.Engine.On_node 1; Sim.Engine.On_node 0 |] in
  let inset = E.persistent_set tags 0 in
  check_bool "chosen transition in its own set" true inset.(0);
  check_bool "other-node transition pruned" false inset.(1);
  check_bool "same-node transition conflicts" true inset.(2)

let test_persistent_set_anon_conflicts_all () =
  (* unknown provenance must be treated as conflicting with everything *)
  let tags = [| Sim.Engine.Anon; Sim.Engine.On_node 1; Sim.Engine.Link (0, 2) |] in
  let inset = E.persistent_set tags 0 in
  check_bool "anon closure swallows the enabled set" true
    (inset.(0) && inset.(1) && inset.(2))

let test_link_footprint_is_destination () =
  check_bool "links to distinct nodes are independent" false
    (E.conflicts (Sim.Engine.Link (0, 1)) (Sim.Engine.Link (0, 2)));
  check_bool "links into one node conflict" true
    (E.conflicts (Sim.Engine.Link (0, 1)) (Sim.Engine.Link (2, 1)));
  check_bool "delivery conflicts with its target's coroutines" true
    (E.conflicts (Sim.Engine.Link (0, 1)) (Sim.Engine.On_node 1))

(* ------------------------------------------------------------------ *)
(* sanitizer: a coroutine parked when the engine has drained is a hang *)

let test_sanitizer_parked_at_quiescence () =
  let engine = Sim.Engine.create () in
  let sched = Depfast.Sched.create engine in
  let san = Check.Sanitizer.create sched in
  Depfast.Sched.spawn sched ~name:"stuck" (fun () ->
      Depfast.Sched.wait sched (Depfast.Event.signal ~label:"never-fired" ()));
  (* two more hangs, each named by its more specific rule: a Count 5
     quorum over three children can never fire, and neither can an
     abandoned rpc completion *)
  let vacuous = Depfast.Event.quorum (Depfast.Event.Count 5) in
  List.iter
    (fun p -> Depfast.Event.add vacuous ~child:(Depfast.Event.rpc_completion ~peer:p ()))
    [ 0; 1; 2 ];
  Depfast.Sched.spawn sched ~name:"vacuous" (fun () -> Depfast.Sched.wait sched vacuous);
  let orphan = Depfast.Event.rpc_completion ~peer:7 () in
  Depfast.Sched.spawn sched ~name:"orphaned" (fun () -> Depfast.Sched.wait sched orphan);
  Depfast.Sched.spawn sched ~name:"abandoner" (fun () -> Depfast.Event.abandon orphan);
  Depfast.Sched.run sched;
  check_int "three coroutines parked" 3 (Check.Sanitizer.parked_count san);
  Check.Sanitizer.check_quiescent san;
  let vs = Check.Sanitizer.violations san in
  let attributed rule =
    List.filter_map
      (fun v -> if v.Check.Sanitizer.rule = rule then Some v.Check.Sanitizer.coroutine else None)
      vs
  in
  Alcotest.(check (list string)) "hang detected" [ "stuck" ] (attributed F.parked_at_quiescence);
  Alcotest.(check (list string)) "count 5 of 3 unsatisfiable" [ "vacuous" ]
    (attributed F.unsatisfiable_wait);
  Alcotest.(check (list string)) "abandoned completion" [ "orphaned" ]
    (attributed F.parked_on_abandoned)

(* the explorer samples every gauge at each choice point: a sample reads
   the gauges and allocates nothing *)
let test_sanitizer_gauges_allocate_nothing () =
  let san = Check.Sanitizer.create (Depfast.Sched.create (Sim.Engine.create ())) in
  let depth = ref 0 in
  Check.Sanitizer.add_gauge san ~label:"g.depth" ~file:"a.ml" ~cap:4 (fun () -> !depth);
  Check.Sanitizer.add_gauge san ~label:"g.one" ~file:"b.ml" ~cap:4 (fun () -> 1);
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    depth := i land 3;
    Check.Sanitizer.sample_gauges san
  done;
  Alcotest.(check (float 0.0)) "minor words over 10 000 samples" 0.0 (Gc.minor_words () -. w0);
  check_int "no overflow" 0 (List.length (Check.Sanitizer.gauge_overflows san))

let test_sanitizer_clean_run_is_silent () =
  let engine = Sim.Engine.create () in
  let sched = Depfast.Sched.create engine in
  let san = Check.Sanitizer.create sched in
  let ev = Depfast.Event.signal () in
  Depfast.Sched.spawn sched ~name:"waiter" (fun () -> Depfast.Sched.wait sched ev);
  Depfast.Sched.spawn sched ~name:"firer" (fun () -> Depfast.Event.fire ev);
  (* a majority fired before its straggler was abandoned resumes its
     waiter: the abandoned child is no hang *)
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  let cs = List.map (fun p -> Depfast.Event.rpc_completion ~peer:p ()) [ 0; 1; 2 ] in
  List.iter (fun c -> Depfast.Event.add q ~child:c) cs;
  Depfast.Sched.spawn sched ~name:"quorum-waiter" (fun () -> Depfast.Sched.wait sched q);
  Depfast.Sched.spawn sched ~name:"replies" (fun () ->
      Depfast.Event.fire (List.nth cs 0);
      Depfast.Event.fire (List.nth cs 1);
      Depfast.Event.abandon (List.nth cs 2));
  Depfast.Sched.run sched;
  Check.Sanitizer.check_quiescent san;
  check_int "no violations" 0 (List.length (Check.Sanitizer.violations san))

(* ------------------------------------------------------------------ *)
(* net choice mode: immediate tagged deliveries, FIFO preserved *)

let test_net_choice_mode_fifo () =
  let engine = Sim.Engine.create () in
  let sched = Depfast.Sched.create engine in
  let net = Cluster.Net.create sched ~latency:(Sim.Dist.Constant 50.0) ~filler:0 () in
  let a = Cluster.Node.create sched ~id:0 ~name:"a" () in
  let b = Cluster.Node.create sched ~id:1 ~name:"b" () in
  let got = ref [] in
  Cluster.Net.register net a ~handler:(fun ~src:_ _ -> ());
  Cluster.Net.register net b ~handler:(fun ~src:_ m -> got := m :: !got);
  Cluster.Net.set_choice_mode net true;
  let fifo_bad = ref 0 in
  Cluster.Net.set_sanitizer net (fun _ -> incr fifo_bad);
  for i = 1 to 10 do
    Cluster.Net.send net ~units:0 ~src:0 ~dst:1 i
  done;
  Depfast.Sched.run sched;
  Alcotest.(check (list int)) "all delivered, per-link FIFO"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !got);
  check_int "no fifo violations" 0 !fifo_bad;
  check_int "no virtual latency in choice mode" 0 (Sim.Engine.now engine)

(* ------------------------------------------------------------------ *)
(* exploration: clean scenarios enumerate without findings *)

let test_quorum_majority_exhausts_clean () =
  let res = E.explore ~budget:(budget ~schedules:2500 ()) (scenario "quorum-majority") in
  check_bool "frontier exhausted" true res.E.complete;
  check_bool "hundreds of interleavings" true (res.E.schedules > 100);
  check_int "no findings" 0 (List.length res.E.findings)

(* Allocation guards: minor and promoted words per explored schedule,
   the checker's own machinery included. The explorer records every run
   into one trace and resets one engine, scheduler and sanitizer per
   exploration; the sanitizer's shadow is flat. A minor collection
   closes the window, so the minor count is exact (a bare [quick_stat]
   stops at the last collection). Minor words: quorum-majority (1 134
   schedules) 1 542.1 with a fresh engine, scheduler, sanitizer and
   chooser per run, 1 066.1 reusing them; raft-elect-3 (200 schedules)
   14 180.3 and 12 230.3; 807.2 and 10 132.7 later, and 761.2 and
   8 232.9 once finished coroutine contexts are pooled within a run and
   a basic event is 9 words. The minor ceilings sit between the last
   two, so rebuilding run state per schedule, a context per spawn, a
   per-run ring or a per-wait record fails here. Promoted words: quorum-majority 17.9 and 15.4 (a fresh
   65 536-slot ring per run once promoted 363). raft-elect-3's depend on
   the major heap the test inherits: 534–1 351 per run built afresh and
   380–931 reused, across this suite, a filtered run and a first
   exploration in a fresh process, so no ceiling separates them and its
   promoted ceiling only catches gross regressions. Since a run state
   keeps its scenario's world and resets it in place, and a sleep or
   yield parks on its own wake, raft-elect-3 costs 5 617.6 minor and
   quorum-majority 722.2: the raft-elect-3 minor ceiling now sits
   between that and the 8 233.0 of a cluster rebuilt per run.
   raft-slow-disk-admission-3 (150 schedules) costs 42 783.4 minor and
   21 290.9 promoted words rebuilt per run, 33 656.8 and 3 696.1 with
   its world reset; building the run's recorded steps with
   [Array.of_list], whose first element is a young array, forced a
   minor collection per long run (171 collections instead of 24) and
   15 874.7 promoted words. Its ceilings sit between. Once a waited CPU
   charge parks in the station instead of on a fresh completion event,
   raft-elect-3 costs 5 146.2 minor words and raft-slow-disk-admission-3
   29 411.9 minor (3 070.2 promoted, against 3 828.2 in the same
   process before): both minor ceilings now sit between the readings
   with and without the held park; the promoted ones are left where
   they were, since the heap a test inherits moves them as much. Once a
   reset keeps the scheduler's contexts and the sanitizer's shadows,
   gauges are sampled with no closure and the core scenarios' names and
   the rpc labels are built once, quorum-majority costs 448.4 minor
   words (722.2 before), raft-elect-3 4 099.3 (5 117.6) and
   raft-slow-disk-admission-3 24 572.0 (29 195.7); the minor ceilings
   sit between. *)
let words_per_schedule ~schedules name =
  let sc = scenario name in
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let res = E.explore ~budget:(budget ~schedules ()) sc in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let per f = (f s1 -. f s0) /. float_of_int res.E.schedules in
  (per (fun s -> s.Gc.minor_words), per (fun s -> s.Gc.promoted_words))

let guard_words ~schedules name ~minor ~promoted () =
  let m, p = words_per_schedule ~schedules name in
  let guard what ceiling words =
    if words > ceiling then
      Alcotest.failf "%s: %s words per schedule: %.1f > ceiling %.0f" name what words ceiling
  in
  guard "minor" minor m;
  guard "promoted" promoted p

let test_quorum_majority_words =
  guard_words ~schedules:2500 "quorum-majority" ~minor:600.0 ~promoted:20.0

let test_raft_elect_words =
  guard_words ~schedules:200 "raft-elect-3" ~minor:4600.0 ~promoted:1100.0

let test_slow_disk_words =
  guard_words ~schedules:150 "raft-slow-disk-admission-3" ~minor:27000.0 ~promoted:8000.0

(* One run state serves a whole exploration, so its reset must make a
   reused state indistinguishable from a fresh one. For every registry
   scenario, the program-order run and its first three backtrack
   prefixes must give the same steps, violations (event ids aside: they
   come from a process-wide counter), overflows and SPG edges on a fresh
   state as on one that just ran a
   different scenario to the end, then to a terminal check that raises
   out of [run_one], then cut off halfway (leaving posted work, timers
   and parked coroutines behind). The cut-off run itself must match a
   fresh one too: it follows the run that raised. Each Raft gating
   scenario then does the same on one state it keeps its world on: a run
   whose check raises, a run cut off halfway, and the prefixes again, all
   on the world its first run built and every later run reset. *)
let run_summary (r : E.run) =
  ( r.E.r_nsteps,
    r.E.r_steps,
    r.E.r_truncated,
    r.E.r_quiescent,
    List.map
      (fun (v : Check.Sanitizer.violation) ->
        Check.Sanitizer.(v.rule, v.coroutine, v.node, v.event_label, v.message))
      r.E.r_violations,
    r.E.r_overflows,
    r.E.r_spg_edges )

let backtrack_prefixes (r : E.run) =
  List.concat
    (List.mapi
       (fun j tags ->
         List.init
           (Array.length tags - 1)
           (fun alt ->
             let p = Array.make (j + 1) 0 in
             p.(j) <- alt + 1;
             p))
       (Array.to_list r.E.r_steps))
  |> List.filteri (fun i _ -> i < 3)

let aborting (sc : Check.Scenario.t) =
  {
    sc with
    Check.Scenario.make =
      (fun san sched ->
        let start = sc.Check.Scenario.make san sched in
        fun () -> { (start ()) with Check.Scenario.check = (fun () -> failwith "abort") });
  }

(* [sc] on its own world, whose first run's terminal check raises *)
let aborting_once (sc : Check.Scenario.t) =
  {
    sc with
    Check.Scenario.make =
      (fun san sched ->
        let start = sc.Check.Scenario.make san sched in
        let armed = ref true in
        fun () ->
          let inst = start () in
          if not !armed then inst
          else begin
            armed := false;
            { inst with Check.Scenario.check = (fun () -> failwith "abort") }
          end);
  }

let test_reused_state_equals_fresh () =
  let budget = budget () in
  let reused = E.fresh_state () in
  let all = Check.Registry.all in
  let n = List.length all in
  List.iteri
    (fun i (sc : Check.Scenario.t) ->
      let other = List.nth all ((i + 1) mod n) in
      let r0 = E.run_one sc ~prefix:[||] ~budget in
      List.iter
        (fun prefix ->
          let fresh = E.run_one sc ~prefix ~budget in
          let whole = E.run_one ~state:reused other ~prefix:[||] ~budget in
          (match E.run_one ~state:reused (aborting other) ~prefix:[||] ~budget with
          | _ -> Alcotest.fail "the aborting check did not raise"
          | exception Failure _ -> ());
          let cut_short = { budget with E.max_steps = whole.E.r_nsteps / 2 } in
          let cut = E.run_one ~state:reused other ~prefix:[||] ~budget:cut_short in
          check_bool "the cut-short run is truncated" true cut.E.r_truncated;
          check_bool
            (Printf.sprintf "%s cut short after a raise = fresh" other.Check.Scenario.name)
            true
            (run_summary cut
            = run_summary (E.run_one other ~prefix:[||] ~budget:cut_short));
          let again = E.run_one ~state:reused sc ~prefix ~budget in
          check_bool
            (Printf.sprintf "%s [%s]: reused after %s = fresh" sc.Check.Scenario.name
               (String.concat ";" (Array.to_list (Array.map string_of_int prefix)))
               other.Check.Scenario.name)
            true
            (run_summary fresh = run_summary again))
        ([||] :: backtrack_prefixes r0))
    all;
  (* a Raft scenario keeps its world across the runs on one state: after
     its own run that raised, and its own run cut off halfway, the runs
     on that world are the runs on a fresh one *)
  List.iter
    (fun (sc : Check.Scenario.t) ->
      let own = aborting_once sc in
      let state = E.fresh_state () in
      (match E.run_one ~state own ~prefix:[||] ~budget with
      | _ -> Alcotest.fail "the aborting check did not raise"
      | exception Failure _ -> ());
      let r0 = E.run_one sc ~prefix:[||] ~budget in
      let cut_short = { budget with E.max_steps = r0.E.r_nsteps / 2 } in
      let cut = E.run_one ~state own ~prefix:[||] ~budget:cut_short in
      check_bool "the cut-short run is truncated" true cut.E.r_truncated;
      check_bool
        (Printf.sprintf "%s cut short on its own world = fresh" sc.Check.Scenario.name)
        true
        (run_summary cut = run_summary (E.run_one sc ~prefix:[||] ~budget:cut_short));
      List.iter
        (fun prefix ->
          check_bool
            (Printf.sprintf "%s [%s]: its own world reused = fresh" sc.Check.Scenario.name
               (String.concat ";" (Array.to_list (Array.map string_of_int prefix))))
            true
            (run_summary (E.run_one ~state own ~prefix ~budget)
            = run_summary (E.run_one sc ~prefix ~budget)))
        ([||] :: backtrack_prefixes r0))
    (List.filter
       (fun (sc : Check.Scenario.t) ->
         sc.Check.Scenario.gating && String.starts_with ~prefix:"raft-" sc.Check.Scenario.name)
       all)

(* ... and keep nothing of the run before. A run cut off while a
   coroutine is parked on an event — the sanitizer has seen the park, the
   engine still holds a posted thunk, a timer and a far-future timer
   that would fire it — leaves that event garbage once the state has run
   again, even a run of a scenario that does nothing. *)
let test_reset_drops_previous_run () =
  let base = scenario "signal-fanout" in
  let seen = Weak.create 1 in
  let parked = ref false and fired = ref false in
  let sc =
    {
      base with
      Check.Scenario.make =
        (fun san sched () ->
          let ev = Depfast.Event.signal ~label:"watched" () in
          Weak.set seen 0 (Some ev);
          Depfast.Sched.spawn sched ~name:"watcher" (fun () ->
              parked := true;
              Depfast.Sched.wait sched ev);
          let fire () =
            fired := true;
            Depfast.Event.fire ev
          in
          Depfast.Sched.spawn sched ~name:"firer" fire;
          let engine = Depfast.Sched.engine sched in
          ignore (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 5) fire);
          ignore (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 3_600_000) fire);
          base.Check.Scenario.make san sched ());
    }
  in
  let cut_at steps = { (budget ()) with E.max_steps = steps } in
  let state = E.fresh_state () in
  let first = E.run_one ~state sc ~prefix:[||] ~budget:(cut_at 1) in
  check_bool "first run cut off with the watcher parked" true
    (first.E.r_truncated && !parked && not !fired);
  let nothing _ _ () = { Check.Scenario.until = None; check = (fun () -> []) } in
  let idle = { base with Check.Scenario.make = nothing } in
  ignore (E.run_one ~state idle ~prefix:[||] ~budget:(budget ()));
  Gc.full_major ();
  check_bool "the first run's event is unreachable" true (Weak.get seen 0 = None);
  ignore (Sys.opaque_identity state)

(* ... and builds none of it again: the scheduler's reset pools every
   context the run before built and the sanitizer re-initialises its
   coroutine shadows in place, so a spawn on a warm state allocates its
   fire wake alone, 5 words (a context is 15; with its three wakes and
   its shadow a spawn on a cold state costs 36) *)
let test_warm_run_builds_no_context () =
  let per_spawn = ref [] in
  let sc =
    {
      (scenario "signal-fanout") with
      Check.Scenario.make =
        (fun _san sched ->
          let body () = Depfast.Sched.yield sched in
          fun () ->
            let w0 = Gc.minor_words () in
            for _ = 1 to 3 do
              Depfast.Sched.spawn sched ~name:"warm.worker" body
            done;
            per_spawn := ((Gc.minor_words () -. w0) /. 3.0) :: !per_spawn;
            { Check.Scenario.until = None; check = (fun () -> []) });
    }
  in
  let state = E.fresh_state () in
  for _ = 1 to 2 do
    ignore (E.run_one ~state sc ~prefix:[||] ~budget:(budget ()))
  done;
  match !per_spawn with
  | [ warm; cold ] ->
    check_bool "the first run builds its contexts" true (cold >= 15.0);
    Alcotest.(check (float 0.0)) "words per spawn on a warm state" 5.0 warm
  | _ -> Alcotest.fail "expected two runs"

let test_dpor_prunes_raft () =
  let res = E.explore ~budget:(budget ~schedules:60 ()) (scenario "raft-elect-3") in
  check_bool "independent alternatives pruned" true (res.E.pruned > 0);
  check_int "safety holds on every explored schedule" 0 (List.length res.E.findings)

let test_slow_disk_admission_bounded () =
  (* ISSUE 7 satellite: a slow leader disk under offered load must not
     grow the admission queue past its certified bound — the gauge
     sampled at every choice point would report queue_gauge_overflow. *)
  let res =
    E.explore ~budget:(budget ~schedules:60 ()) (scenario "raft-slow-disk-admission-3")
  in
  check_bool "schedules explored" true (res.E.schedules > 0);
  check_int "gauge bounded, safety holds, no sheds lost" 0
    (List.length res.E.findings)

let test_explore_is_deterministic () =
  let sc = scenario "broken-quorum" in
  let show r = List.map F.to_string r.E.findings in
  let r1 = E.explore ~budget:(budget ~schedules:300 ()) sc in
  let r2 = E.explore ~budget:(budget ~schedules:300 ()) sc in
  check_int "same schedule count" r1.E.schedules r2.E.schedules;
  Alcotest.(check (list string)) "same findings, same order" (show r1) (show r2)

(* ------------------------------------------------------------------ *)
(* the broken fixture: clean on the program-order schedule, caught by
   exploration — the whole reason the explorer exists *)

let test_broken_fixture_needs_exploration () =
  let sc = scenario "broken-quorum" in
  let r0 = E.run_one sc ~prefix:[||] ~budget:(budget ()) in
  check_bool "program-order run quiesces" true r0.E.r_quiescent;
  check_int "program-order run sees nothing" 0 (List.length r0.E.r_violations);
  let res = E.explore ~budget:(budget ~schedules:1000 ()) sc in
  check_bool "exploration finds the hang" true
    (has_rule F.unsatisfiable_wait res.E.findings);
  check_bool "and the degenerate rewiring" true
    (has_rule F.dynamic_red_wait res.E.findings)

let tree_certs =
  lazy
    (match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
    | None -> None (* sources not materialized in this sandbox *)
    | Some root -> Some (Check.Certificate.build ~roots:[ root ] ()))

(* Certificates cross-check results; they never steer exploration. Every
   registry scenario, capped at 60 schedules, runs the same schedules and
   prunes the same alternatives with certificates as without, and reports
   the same findings once the cross-checks' own are set aside.
   broken-quorum runs its whole frontier, so its seeded violation must
   still be found with certificates on. *)
let test_certs_never_steer () =
  match Lazy.force tree_certs with
  | None -> ()
  | Some certs ->
    let cross_check f = f.F.rule = F.certificate_mismatch || f.F.rule = F.spg_stale_edge in
    let show r =
      List.map F.to_string (List.filter (fun f -> not (cross_check f)) r.E.findings)
    in
    List.iter
      (fun (sc : Check.Scenario.t) ->
        let name = sc.Check.Scenario.name in
        let b =
          if name = "broken-quorum" then E.default_budget else budget ~schedules:60 ()
        in
        let on = E.explore ~budget:b ~certs sc and off = E.explore ~budget:b sc in
        check_int (name ^ ": schedules") off.E.schedules on.E.schedules;
        check_int (name ^ ": pruned") off.E.pruned on.E.pruned;
        check_bool (name ^ ": complete") off.E.complete on.E.complete;
        Alcotest.(check (list string)) (name ^ ": findings") (show off) (show on);
        if name = "broken-quorum" then
          check_bool "the quorum violation is still detected" true
            (has_rule F.unsatisfiable_wait on.E.findings))
      Check.Registry.all

(* the source walker behind every static front end: sorted, no build
   or VCS directories, and no generated .pp.ml files. The test sandbox's
   ../lib holds ppx output (marshalled ASTs, not source) next to the
   sources, and a certificate built over it must not lex them. *)
let test_walker_skips_generated () =
  let dir = Filename.temp_dir "walker" "" in
  let touch rel =
    let p = Filename.concat dir rel in
    if not (Sys.file_exists (Filename.dirname p)) then Sys.mkdir (Filename.dirname p) 0o755;
    close_out (open_out p);
    p
  in
  let made =
    List.map touch
      [ "b.ml"; "a/x.ml"; "_build/y.ml"; ".git/z.ml"; ".objs/w.ml"; "c.pp.ml"; "d.mli" ]
  in
  let found = Analysis.Source_lint.ml_files [ dir ] in
  List.iter Sys.remove made;
  List.iter (fun d -> Sys.rmdir (Filename.concat dir d)) [ "a"; "_build"; ".git"; ".objs" ];
  Sys.rmdir dir;
  Alcotest.(check (list string)) "sources only, in sorted walk order"
    [ Filename.concat dir "a/x.ml"; Filename.concat dir "b.ml" ]
    found;
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | None -> ()
  | Some root ->
    let files = Analysis.Source_lint.ml_files [ root ] in
    check_bool "tree walk sorted" true (files = List.sort compare files);
    check_bool "no _build entries" false
      (List.exists (fun p -> List.mem "_build" (String.split_on_char '/' p)) files);
    (match Lazy.force tree_certs with
    | None -> ()
    | Some t ->
      check_bool "sources covered" true (Check.Certificate.covered t "lib/raft/kv.ml");
      check_bool "generated kv.pp.ml not lexed as source" false
        (Check.Certificate.covered t "lib/raft/kv.pp.ml"))

let test_certificate_mismatch_on_broken_fixture () =
  (* the fixture's waits are quorum-shaped, so the static passes (and
     hence the certificate) hold the file clean; dynamic evidence to the
     contrary must surface as certificate-mismatch *)
  let certs = Check.Certificate.of_findings ~files:[ "lib/check/fixtures.ml" ] [] in
  check_bool "fixture certified clean" true
    (Check.Certificate.clean certs "lib/check/fixtures.ml");
  let res =
    E.explore ~budget:(budget ~schedules:1000 ()) ~certs (scenario "broken-quorum")
  in
  check_bool "static certificate contradicted" true
    (has_rule F.certificate_mismatch res.E.findings)

let test_flagged_file_is_not_clean () =
  let finding =
    F.v ~rule:F.red_exposure ~severity:F.Error
      ~loc:(F.File { file = "lib/raft/client.ml"; line = 3 })
      "bare wait"
  in
  let certs = Check.Certificate.of_findings ~files:[ "lib/raft/client.ml" ] [ finding ] in
  check_bool "covered" true (Check.Certificate.covered certs "lib/raft/client.ml");
  check_bool "not clean" false (Check.Certificate.clean certs "lib/raft/client.ml");
  check_bool "uncovered file is not clean either" false
    (Check.Certificate.clean certs "lib/raft/server.ml")

(* ------------------------------------------------------------------ *)
(* multicore: the work-stealing parallel explorer must report exactly
   what the serial explorer reports — same schedule and prune totals,
   same findings in the same order — at every domain count, certificates
   included (ISSUE 9 tentpole contract) *)

let check_parallel_matches_serial ?(schedules = 300) name () =
  let sc = scenario name in
  let certs = Lazy.force tree_certs in
  let b = budget ~schedules () in
  let serial = E.explore ~budget:b ?certs sc in
  let show r = List.map F.to_string r.E.findings in
  List.iter
    (fun jobs ->
      let par = E.explore ~budget:b ?certs ~jobs sc in
      check_int (Printf.sprintf "%s jobs=%d: schedule count" name jobs)
        serial.E.schedules par.E.schedules;
      (* under a budget cap the two traversals claim different subsets of
         the frontier, so the prune tally is only pinned when the tree
         was exhausted — the schedule total and findings are pinned
         either way *)
      if serial.E.complete then
        check_int (Printf.sprintf "%s jobs=%d: pruned count" name jobs) serial.E.pruned
          par.E.pruned;
      check_bool (Printf.sprintf "%s jobs=%d: completeness" name jobs) serial.E.complete
        par.E.complete;
      Alcotest.(check (list string))
        (Printf.sprintf "%s jobs=%d: findings" name jobs)
        (show serial) (show par))
    [ 1; 2; 4 ]

let test_par_serial_broken_quorum = check_parallel_matches_serial "broken-quorum"

let test_par_serial_leaky_backlog =
  (* par_safe = false in the registry: every jobs value must be forced
     back to one domain and still agree with the serial run *)
  check_parallel_matches_serial "leaky-backlog"

let test_par_serial_slow_disk =
  check_parallel_matches_serial ~schedules:60 "raft-slow-disk-admission-3"

(* ------------------------------------------------------------------ *)
(* satellite: report order must not depend on source discovery order *)

let test_report_order_shuffle_invariant () =
  let left =
    {|let log_mu = Depfast.Mutex.create ()
let flush sched = Depfast.Mutex.with_lock sched log_mu (fun () -> Right.sync sched)
|}
  in
  let right =
    {|let snap_mu = Depfast.Mutex.create ()
let sync sched = Depfast.Mutex.with_lock sched snap_mu (fun () -> Left.flush sched)
|}
  in
  let show fs = List.map F.to_string fs in
  let analyze sources = Analysis.Interproc.analyze (Analysis.Growth.load sources) in
  let fs1 = analyze [ ("left.ml", left); ("right.ml", right) ] in
  let fs2 = analyze [ ("right.ml", right); ("left.ml", left) ] in
  check_bool "fixture produces findings" true (fs1 <> []);
  Alcotest.(check (list string)) "same report either way" (show fs1) (show fs2)

let test_by_location_total_order () =
  let f ~file ~line ~rule ~sev msg = F.v ~rule ~severity:sev ~loc:(F.File { file; line }) msg in
  let fs =
    [
      f ~file:"b.ml" ~line:1 ~rule:"lock-across-call" ~sev:F.Error "m";
      f ~file:"a.ml" ~line:9 ~rule:"lock-across-call" ~sev:F.Error "m";
      f ~file:"a.ml" ~line:2 ~rule:"red-exposure" ~sev:F.Warning "m";
      f ~file:"a.ml" ~line:2 ~rule:"lock-across-call" ~sev:F.Error "m";
    ]
  in
  let sorted l = List.map F.to_string (List.sort F.by_location l) in
  Alcotest.(check (list string)) "sort is permutation-invariant" (sorted fs)
    (sorted (List.rev fs));
  match List.sort F.by_location fs with
  | a :: b :: _ ->
    check_bool "file then line then rule" true
      (F.loc_string a.F.loc = "a.ml:2" && a.F.rule = "lock-across-call"
      && F.loc_string b.F.loc = "a.ml:2" && b.F.rule = "red-exposure")
  | _ -> Alcotest.fail "unreachable"

let suite =
  [
    ( "check.explore",
      [
        Alcotest.test_case "chooser controls order" `Quick test_chooser_controls_order;
        Alcotest.test_case "persistent set independence" `Quick
          test_persistent_set_independence;
        Alcotest.test_case "anon conflicts with all" `Quick
          test_persistent_set_anon_conflicts_all;
        Alcotest.test_case "link footprint" `Quick test_link_footprint_is_destination;
        Alcotest.test_case "quorum-majority exhausts clean" `Quick
          test_quorum_majority_exhausts_clean;
        Alcotest.test_case "quorum-majority words per schedule" `Quick
          test_quorum_majority_words;
        Alcotest.test_case "raft-elect-3 words per schedule" `Quick test_raft_elect_words;
        Alcotest.test_case "slow-disk admission words per schedule" `Quick
          test_slow_disk_words;
        Alcotest.test_case "reused run state equals fresh" `Quick
          test_reused_state_equals_fresh;
        Alcotest.test_case "reset drops the previous run" `Quick test_reset_drops_previous_run;
        Alcotest.test_case "a warm run builds no context" `Quick
          test_warm_run_builds_no_context;
        Alcotest.test_case "DPOR prunes raft" `Quick test_dpor_prunes_raft;
        Alcotest.test_case "slow-disk admission stays bounded" `Quick
          test_slow_disk_admission_bounded;
        Alcotest.test_case "deterministic results" `Quick test_explore_is_deterministic;
        Alcotest.test_case "broken fixture needs exploration" `Quick
          test_broken_fixture_needs_exploration;
        Alcotest.test_case "certificates never steer exploration" `Quick
          test_certs_never_steer;
      ] );
    ( "check.sanitizer",
      [
        Alcotest.test_case "parked at quiescence" `Quick
          test_sanitizer_parked_at_quiescence;
        Alcotest.test_case "clean run silent" `Quick test_sanitizer_clean_run_is_silent;
        Alcotest.test_case "gauge sampling allocates nothing" `Quick
          test_sanitizer_gauges_allocate_nothing;
        Alcotest.test_case "net choice mode FIFO" `Quick test_net_choice_mode_fifo;
      ] );
    ( "check.certificate",
      [
        Alcotest.test_case "mismatch on broken fixture" `Quick
          test_certificate_mismatch_on_broken_fixture;
        Alcotest.test_case "flagged file not clean" `Quick test_flagged_file_is_not_clean;
        Alcotest.test_case "walker skips generated sources" `Quick
          test_walker_skips_generated;
      ] );
    ( "check.multicore",
      [
        Alcotest.test_case "parallel == serial: broken-quorum" `Quick
          test_par_serial_broken_quorum;
        Alcotest.test_case "parallel == serial: leaky-backlog" `Quick
          test_par_serial_leaky_backlog;
        Alcotest.test_case "parallel == serial: slow-disk admission" `Quick
          test_par_serial_slow_disk;
      ] );
    ( "check.ordering",
      [
        Alcotest.test_case "shuffle-invariant reports" `Quick
          test_report_order_shuffle_invariant;
        Alcotest.test_case "by_location total order" `Quick test_by_location_total_order;
      ] );
  ]
