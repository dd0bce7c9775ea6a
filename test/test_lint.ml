(* Self-tests for the static fail-slow lint: tokenizer, the one rule
   per paper claim (red-exposure for waits, lock-across-call for locks,
   quorum-arity-mismatch for arity; positive and negative for each) run
   as depfast_lint runs them, over a project built from the source under
   test, pragma allowlisting, pragma hygiene, and the wait-DAG defect
   shapes through the dynamic checks that own them. Fixture files live under
   test/fixtures/ and are scanned but never compiled. *)

module F = Analysis.Finding
module L = Analysis.Lexer
module SL = Analysis.Source_lint
module G = Analysis.Growth

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_rules = Alcotest.(check (list string))

let rules fs = List.sort_uniq compare (List.map (fun f -> f.F.rule) fs)
let unallowed_rules fs = rules (F.unallowed fs)

let fixture name =
  let cands = [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ] in
  match List.find_opt Sys.file_exists cands with
  | Some p -> p
  | None -> Alcotest.fail ("fixture not found: " ^ name)

(* Every static pass over one project, as depfast_lint runs them:
   findings, and the slowness-propagation certificates. *)
let passes p =
  let r = Analysis.Passes.run p in
  (Analysis.Passes.findings r, r.Analysis.Passes.spg)

let lint_string src = fst (passes (G.load [ ("snippet.ml", src) ]))
let lint_files paths = fst (passes (G.load_files paths))

let wait_cert src =
  match snd (passes (G.load [ ("snippet.ml", src) ])) with
  | c :: _ when c.G.c_kind = "wait" -> c
  | _ -> Alcotest.fail "expected a wait certificate"

let severities fs = List.sort_uniq compare (List.map (fun f -> F.severity_name f.F.severity) fs)

(* The source tree: the parent directory under dune, else the current one. *)
let base = if Sys.file_exists "../lib" then ".." else "."

(* ------------------------------------------------------------------ *)
(* lexer *)

let test_lexer_positions () =
  let r = L.scan "let x = 1\nlet y = f x\n" in
  let tok i = r.L.tokens.(i) in
  check_int "tokens" 9 (Array.length r.L.tokens);
  check_bool "first is let at origin" true
    ((tok 0).L.text = "let" && (tok 0).L.line = 1 && (tok 0).L.col = 0);
  check_bool "second line tracked" true ((tok 4).L.text = "let" && (tok 4).L.line = 2)

let test_lexer_skips_noise () =
  let r =
    L.scan "(* comment (* nested *) more *) \"a string (\" f {|quoted )|} 'c' g {ab|x |a} |ac} y|ab} h"
  in
  let texts = Array.to_list (Array.map (fun (t : L.token) -> t.L.text) r.L.tokens) in
  check_rules "only code survives" [ "f"; "g"; "h" ] texts

(* Each identifier carries the dotted name starting at it, and
   [SL.after] the index past that name. *)
let test_lexer_dotted () =
  let check_name what src i dotted after =
    let a = (L.scan src).L.tokens in
    Alcotest.(check string) (what ^ ": name") dotted a.(i).L.dotted;
    check_int (what ^ ": index past it") after (SL.after a i)
  in
  check_name "module path" "Depfast.Sched.wait s" 0 "Depfast.Sched.wait" 5;
  check_name "suffix of a path" "Depfast.Sched.wait s" 2 "Sched.wait" 5;
  check_name "last segment" "Depfast.Sched.wait s" 4 "wait" 5;
  check_name "field chain" "t.node.cpu" 0 "t.node.cpu" 5;
  check_name "local open stops before (" "M.(x)" 0 "M" 1;
  check_name "array index stops the name" "a.(i).f" 0 "a" 1;
  check_name "field after an index" "a.(i).f" 6 "f" 7;
  check_name "float literal is one token" "1.5" 0 "1.5" 1;
  check_name "assigned field" "x.y <- v" 0 "x.y" 3;
  check_name "chain across a newline" "Depfast.\n  Sched.wait s" 0 "Depfast.Sched.wait" 5;
  let t = (L.scan "f x").L.tokens.(0) in
  check_bool "a lone name shares its text" true (t.L.dotted == t.L.text)

(* [L.pragmas] reads what [L.scan] reads, over every source of the tree
   and the lint fixtures. *)
let test_lexer_pragmas_only () =
  let files =
    SL.ml_files
      (List.filter Sys.file_exists
         (List.map (Filename.concat base)
            [ "lib"; "bin"; "examples"; "bench"; Filename.concat "test" "fixtures" ]))
  in
  let pragmas =
    List.concat_map
      (fun path ->
        let src = SL.read_source path in
        let ps = L.pragmas src in
        if ps <> (L.scan src).L.pragmas then Alcotest.failf "%s: pragmas differ from scan's" path;
        ps)
      files
  in
  check_bool "sources found" true (List.length files > 50);
  check_bool "pragmas found" true (List.length pragmas > 20)

let test_lexer_pragma () =
  let r =
    L.scan "let a = 1\n(* depfast-lint: allow red-exposure lock-across-call — the prose *)\nlet b = 2\n"
  in
  match r.L.pragmas with
  | [ p ] ->
    check_int "pragma line" 2 p.L.p_line;
    check_rules "ids captured, prose after the dash is not" [ "red-exposure"; "lock-across-call" ]
      p.L.p_rules
  | ps -> Alcotest.failf "expected one pragma, got %d" (List.length ps)

(* ------------------------------------------------------------------ *)
(* claim 1 (paper §3.1): a wait outside a quorum — red-exposure *)

let test_red_wait_positive () =
  let fs =
    lint_string
      {|let f sched =
  let ev = Depfast.Event.rpc_completion ~peer:3 () in
  Depfast.Sched.wait sched ev
|}
  in
  check_rules "naked rpc wait is red and exposed" [ F.red_exposure ] (unallowed_rules fs);
  check_rules "an rpc completion gates the default lint" [ "error" ] (severities fs)

let test_red_wait_direct_call () =
  let fs =
    lint_string
      {|let f sched call = Depfast.Sched.wait sched (Cluster.Rpc.event call)
|}
  in
  check_rules "direct Rpc.event wait" [ F.red_exposure ] (unallowed_rules fs);
  check_rules "error severity" [ "error" ] (severities fs)

let test_red_wait_negative_quorum () =
  let fs =
    lint_string
      {|let f sched =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  Depfast.Sched.wait sched q
|}
  in
  check_rules "quorum wait is green" [] (rules fs)

let test_disk_wait_is_warning () =
  let fs =
    lint_string
      {|let f sched d = Depfast.Sched.wait sched (Cluster.Disk.read d ~bytes:4096)
|}
  in
  check_rules "blocking disk read" [ F.red_exposure ] (rules fs);
  match fs with
  | [ f ] -> check_bool "warning severity" true (f.F.severity = F.Warning)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_unbounded_negative_timeout () =
  let src =
    {|let f sched call span =
  ignore (Depfast.Sched.wait_timeout sched (Cluster.Rpc.event call) span)
|}
  in
  check_rules "a timed wait is covered" [] (rules (lint_string src));
  let c = wait_cert src in
  check_bool "still red, but deadline-covered" true
    (c.G.c_verdict = G.Bounded
    && String.starts_with ~prefix:"red wait" c.G.c_evidence
    && String.ends_with ~suffix:"deadline-covered" c.G.c_evidence)

let test_shadowing_clears_fact () =
  let fs =
    lint_string
      {|let f sched =
  let ev = Depfast.Event.rpc_completion ~peer:1 () in
  let ev = Depfast.Event.signal () in
  Depfast.Sched.wait sched ev
|}
  in
  (* the signal still fate-shares inside an exposed function, but it is
     no longer an rpc completion: a warning, not a gating error *)
  check_rules "exposed local wait" [ F.red_exposure ] (rules fs);
  check_rules "rebinding to a local event clears the rpc fact" [ "warning" ] (severities fs)

let test_producer_propagation () =
  let fs =
    lint_string
      {|let replica sched ~peer =
  let reply = Depfast.Event.rpc_completion ~peer () in
  ignore sched;
  reply

let f sched ~peer = Depfast.Sched.wait sched (replica sched ~peer)
|}
  in
  check_rules "wait on a local producer function" [ F.red_exposure ] (unallowed_rules fs);
  check_rules "the producer returns an rpc completion: an error" [ "error" ] (severities fs);
  check_bool "exposure reaches the waiter through the producer" true
    (List.exists
       (fun f -> f.F.loc = F.File { file = "snippet.ml"; line = 6 })
       fs)

let test_tuple_binding_tracked () =
  (* regression: [let ev, meta = ...] used to launder the completion *)
  let fs =
    lint_string
      {|let f sched ~peer =
  let ack, _meta = (Depfast.Event.rpc_completion ~peer (), peer) in
  Depfast.Sched.wait sched ack
|}
  in
  check_rules "tuple literal binding tracked" [ F.red_exposure ] (unallowed_rules fs);
  check_rules "its component is an rpc completion: an error" [ "error" ] (severities fs)

let test_tuple_binding_other_component () =
  let fs =
    lint_string
      {|let f sched ~peer =
  let _meta, ack = (peer, Depfast.Event.signal ()) in
  let ev, _ = (Depfast.Event.rpc_completion ~peer (), peer) in
  ignore ev;
  Depfast.Sched.wait sched ack
|}
  in
  check_rules "the local signal is no rpc wait: nothing gates by default" []
    (rules (F.gating ~strict:false fs))

let test_tuple_producer_function () =
  let fs =
    lint_string
      {|let begin_call ~peer = (Depfast.Event.rpc_completion ~peer (), peer)

let f sched ~peer =
  let ack, _where = begin_call ~peer in
  Depfast.Sched.wait sched ack
|}
  in
  check_rules "completion tracked through a tuple-returning function" [ F.red_exposure ]
    (unallowed_rules fs)

let test_degenerate_quorum_positive () =
  let fs =
    lint_string
      {|let f sched ~peers =
  let all = Depfast.Event.and_ () in
  List.iter
    (fun p -> Depfast.Event.add all ~child:(Depfast.Event.rpc_completion ~peer:p ()))
    peers;
  Depfast.Sched.wait sched all
|}
  in
  check_rules "and_ over rpc completions is a red wait" [ F.red_exposure ] (rules fs);
  check_bool "named as the and_" true
    (List.exists (fun f -> String.starts_with ~prefix:"fate-sharing wait on and_ all" f.F.message) fs)

let test_degenerate_quorum_negative () =
  let fs =
    lint_string
      {|let f sched ~peers =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  List.iter
    (fun p -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer:p ()))
    peers;
  Depfast.Sched.wait sched q
|}
  in
  check_rules "majority quorum is fine" [] (rules fs)

(* ------------------------------------------------------------------ *)
(* claim 2 (paper §2): a lock held across a suspension — lock-across-call *)

let test_lock_across_wait_positive_applied () =
  let fs =
    lint_string
      {|let f sched mu ~peer =
  Depfast.Mutex.with_lock sched mu @@ fun () ->
  let ev = Depfast.Event.rpc_completion ~peer () in
  Depfast.Sched.wait sched ev
|}
  in
  check_bool "with_lock @@ form caught" true (List.mem F.lock_across_call (rules fs))

let test_lock_across_wait_positive_explicit () =
  let fs =
    lint_string
      {|let f sched mu ev =
  Depfast.Mutex.lock sched mu;
  Depfast.Sched.wait sched ev;
  Depfast.Mutex.unlock mu
|}
  in
  check_rules "explicit lock/unlock caught" [ F.lock_across_call ] (rules fs);
  let fs =
    lint_string
      {|let f sched mu cv =
  Depfast.Mutex.with_lock sched mu (fun () -> Depfast.Condvar.wait sched cv)
|}
  in
  check_bool "a condition wait under the lock too" true
    (List.exists
       (fun f ->
         f.F.rule = F.lock_across_call
         && String.starts_with ~prefix:"Condvar.wait while holding a mutex" f.F.message)
       fs);
  let fs =
    lint_string
      {|let f sched mu ev =
  Depfast.Mutex.with_lock sched mu (fun () -> Depfast.Sched.hold sched ev)
|}
  in
  check_bool "a held park under the lock too" true
    (List.exists
       (fun f ->
         f.F.rule = F.lock_across_call
         && String.starts_with ~prefix:"Sched.hold while holding a mutex" f.F.message)
       fs)

let test_lock_across_wait_negative () =
  let fs =
    lint_string
      {|let f sched mu ev =
  Depfast.Mutex.lock sched mu;
  Depfast.Mutex.unlock mu;
  Depfast.Sched.wait sched ev
|}
  in
  check_rules "wait after unlock is fine" [] (rules fs)

(* ------------------------------------------------------------------ *)
(* pragmas *)

let test_pragma_window () =
  let fs =
    lint_string
      {|let f sched =
  (* depfast-lint: allow red-exposure *)
  let ev = Depfast.Event.rpc_completion ~peer:1 () in
  Depfast.Sched.wait sched ev
|}
  in
  check_int "finding still reported" 1 (List.length fs);
  check_int "but allowed" 0 (List.length (F.unallowed fs))

let test_pragma_too_far () =
  let fs =
    lint_string
      {|let f sched =
  (* depfast-lint: allow red-exposure *)
  let a = 1 in
  let b = a in
  let c = b in
  let ev = Depfast.Event.rpc_completion ~peer:c () in
  Depfast.Sched.wait sched ev
|}
  in
  check_int "pragma out of its 3-line window" 1 (List.length (F.unallowed fs))

(* pragma hygiene: an id no static pass reports is itself a gating
   finding *)
let test_unknown_pragma () =
  let fs =
    SL.lint_string ~path:"retired.ml"
      {|let f sched ev =
  (* depfast-lint: allow red-wait — a retired id *)
  Depfast.Sched.wait sched ev
|}
  in
  check_rules "retired id reported" [ F.unknown_pragma ] (rules fs);
  check_bool "at the pragma, as an error" true
    (List.for_all
       (fun f -> f.F.loc = F.File { file = "retired.ml"; line = 2 } && f.F.severity = F.Error)
       fs);
  check_rules "a dynamic checker's id exempts nothing either" [ F.unknown_pragma ]
    (rules (SL.lint_string "(* depfast-lint: allow dynamic-red-wait *)\n"));
  check_rules "known ids pass" []
    (rules
       (SL.lint_string "(* depfast-lint: allow red-exposure lock-across-call — prose *)\n"))

(* The same window through every whole-project pass: [block gap] is a
   pragma line followed by [gap] blank lines, so the finding right after
   it sits on line L = pragma line + gap + 1. *)
let pass_pragma_cases =
  let callee =
    {|let await_majority sched ~peers =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  List.iter
    (fun peer -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer ()))
    peers;
  Depfast.Sched.wait sched q
|}
  in
  [
    ( F.lock_across_call,
      (fun block ->
        [
          ( "caller.ml",
            {|let mu = Depfast.Mutex.create ()
let commit sched ~peers =
  Depfast.Mutex.with_lock sched mu (fun () ->
|}
            ^ block ^ {|      Callee.await_majority sched ~peers)
|} );
          ("callee.ml", callee);
        ]),
      Analysis.Interproc.analyze );
    ( F.missing_deadline,
      (fun block ->
        [
          ( "replica.ml",
            {|let replicate sched peers =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  List.iter
    (fun peer -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer ()))
    peers;
|}
            ^ block
            ^ {|  Depfast.Sched.wait sched q

let serve rpc node sched peers =
  Cluster.Rpc.serve rpc ~node ~handler:(fun ~src _ -> ignore src; replicate sched peers)
|} );
        ]),
      fun p -> fst (Analysis.Bounds.analyze p) );
    ( F.unsafe_shared_state,
      (fun block ->
        [ ("tally.ml", block ^ {|let total = ref 0

let add n = total := !total + n
|}) ]),
      fun p ->
        let fs, _, _ = Analysis.Domains.analyze p in
        fs );
    ( F.red_exposure,
      (fun block ->
        [
          ( "wal.ml",
            {|let append sched disk payload =
  let done_ = Disk.write disk payload in
|}
            ^ block ^ {|  Sched.wait sched done_
|} );
        ]),
      fun p ->
        let fs, _, _ = Analysis.Spg_static.analyze p in
        fs );
  ]

let pass_pragma ~gap =
  List.iter
    (fun (rule, sources, run) ->
      let block = Printf.sprintf "(* depfast-lint: allow %s *)\n%s" rule (String.make gap '\n') in
      let fs =
        List.filter (fun f -> f.F.rule = rule) (run (Analysis.Growth.load (sources block)))
      in
      check_bool (rule ^ " reported") true (fs <> []);
      check_bool
        (Printf.sprintf "%s allowed with the pragma %d line(s) above" rule (gap + 1))
        (gap + 1 <= 3)
        (List.for_all (fun f -> f.F.allowed) fs))
    pass_pragma_cases

let test_pass_pragma_window () = pass_pragma ~gap:2
let test_pass_pragma_too_far () = pass_pragma ~gap:3

(* ------------------------------------------------------------------ *)
(* fixture files *)

let test_fixture_red_wait () =
  let bad = lint_files [ fixture "red_wait_bad.ml" ] in
  check_rules "bad fixture flagged" [ F.red_exposure ] (unallowed_rules bad);
  let ok = lint_files [ fixture "red_wait_ok.ml" ] in
  check_rules "quorum fixture clean" [] (rules ok)

let test_fixture_lock_across_wait () =
  let bad = lint_files [ fixture "lock_across_wait_bad.ml" ] in
  check_bool "bad fixture flagged" true (List.mem F.lock_across_call (unallowed_rules bad));
  let ok = lint_files [ fixture "lock_across_wait_ok.ml" ] in
  check_rules "disciplined fixture clean" [] (rules ok)

let test_fixture_tuple_red_wait () =
  let fs = lint_files [ fixture "tuple_red_wait.ml" ] in
  check_rules "tuple fixture flagged" [ F.red_exposure ] (unallowed_rules fs);
  check_rules "the component begin_call returns is an rpc completion" [ "error" ]
    (severities fs)

let test_fixture_pragma () =
  let fs = lint_files [ fixture "pragma_allowed.ml" ] in
  check_int "findings reported" 1 (List.length fs);
  check_int "all allowed" 0 (List.length (F.unallowed fs))

(* Each static rule comes from one pass: over every fixture loaded as one
   project, no rule id is tagged with two pass names. *)
let test_one_pass_per_rule () =
  let dir = Filename.dirname (fixture "arity_use.ml") in
  let r = Analysis.Passes.run (G.load_files (SL.ml_files [ dir ])) in
  let passes = Hashtbl.create 16 in
  List.iter
    (fun (pass, (f : F.t)) ->
      let seen = Option.value ~default:[] (Hashtbl.find_opt passes f.F.rule) in
      if not (List.mem pass seen) then Hashtbl.replace passes f.F.rule (pass :: seen))
    r.Analysis.Passes.tagged;
  Hashtbl.iter
    (fun rule ps ->
      if List.length ps <> 1 then
        Alcotest.failf "%s comes from %s" rule (String.concat " and " (List.sort compare ps)))
    passes;
  Alcotest.(check (list string))
    "quorum-arity-mismatch from spg" [ "spg" ]
    (Option.value ~default:[] (Hashtbl.find_opt passes F.quorum_arity_mismatch))

(* ------------------------------------------------------------------ *)
(* DAG shapes: the wait-DAG defects a trace-free checker once reported,
   now caught by the checks that own each claim — Event.stallers for
   classification, Spg.audit over a recorded run for red waits, and the
   sanitizer at quiescence for waits that can never fire *)

let quorum_over ?(q = Depfast.Event.quorum Depfast.Event.Majority) peers =
  let cs =
    List.map
      (fun p ->
        let c = Depfast.Event.rpc_completion ~peer:p () in
        Depfast.Event.add q ~child:c;
        c)
      peers
  in
  (q, cs)

(* Spg.audit over one recorded wait by node 9 on [ev]; [leaves] are
   fired 2 ms in so the wait completes *)
let audit_wait ?allow (ev, leaves) =
  let engine = Sim.Engine.create ~seed:5L () in
  let trace = Depfast.Trace.create () in
  let sched = Depfast.Sched.create ~trace engine in
  Depfast.Trace.enable trace;
  Depfast.Sched.spawn sched ~node:9 ~name:"waiter" (fun () ->
      ignore
        (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 2) (fun () ->
             List.iter Depfast.Event.fire leaves));
      Depfast.Sched.wait sched ev);
  Depfast.Sched.run ~until:(Sim.Time.ms 10) sched;
  Depfast.Spg.audit ?allow trace

(* sanitizer rules at quiescence after [setup] spawns its coroutines *)
let hang_rules setup =
  let engine = Sim.Engine.create () in
  let sched = Depfast.Sched.create engine in
  let san = Check.Sanitizer.create sched in
  setup sched;
  Depfast.Sched.run sched;
  Check.Sanitizer.check_quiescent san;
  List.map (fun v -> v.Check.Sanitizer.rule) (Check.Sanitizer.violations san)

let wait_on ev sched = Depfast.Sched.spawn sched ~name:"waiter" (fun () -> Depfast.Sched.wait sched ev)

let test_dag_classify () =
  let q, _ = quorum_over [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "majority quorum green" [] (Depfast.Event.stallers q);
  let lone = Depfast.Event.rpc_completion ~peer:7 () in
  Alcotest.(check (list int)) "lone rpc red" [ 7 ] (Depfast.Event.stallers lone)

let test_dag_red_wait () =
  let lone = Depfast.Event.rpc_completion ~peer:7 () in
  (match audit_wait (lone, [ lone ]) with
  | [ v ] -> check_int "red wait reported, stalled by its peer" 7 v.Depfast.Spg.v_peer
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  let q, cs = quorum_over [ 0; 1; 2 ] in
  check_int "quorum clean" 0 (List.length (audit_wait (q, cs)))

let test_dag_orphan_positive () =
  (* an abandoned child can never fire *)
  let abandoned = Depfast.Event.rpc_completion ~peer:7 () in
  Depfast.Event.abandon abandoned;
  check_rules "abandoned completion is an orphan" [ F.parked_on_abandoned ]
    (hang_rules (wait_on abandoned));
  (* a 2-of-3 quorum with one live child cannot fire either *)
  let q, cs = quorum_over [ 0; 1; 2 ] in
  Depfast.Event.abandon (List.nth cs 1);
  Depfast.Event.abandon (List.nth cs 2);
  check_rules "quorum itself cannot fire" [ F.unsatisfiable_wait ] (hang_rules (wait_on q))

let test_dag_orphan_negative () =
  let q, cs = quorum_over [ 0; 1; 2 ] in
  check_rules "fully fired quorum has no orphans" []
    (hang_rules (fun sched ->
         wait_on q sched;
         Depfast.Sched.spawn sched ~name:"replies" (fun () -> List.iter Depfast.Event.fire cs)));
  (* a fired quorum with a discarded straggler is not an orphan *)
  let q2, cs2 = quorum_over [ 0; 1; 2 ] in
  check_rules "straggler under a fired quorum ignored" []
    (hang_rules (fun sched ->
         wait_on q2 sched;
         Depfast.Sched.spawn sched ~name:"replies" (fun () ->
             Depfast.Event.fire (List.nth cs2 0);
             Depfast.Event.fire (List.nth cs2 1);
             Depfast.Event.abandon (List.nth cs2 2))))

let test_dag_vacuous () =
  let q, _ = quorum_over ~q:(Depfast.Event.quorum (Depfast.Event.Count 5)) [ 0; 1; 2 ] in
  check_rules "count 5 of 3 is vacuous" [ F.unsatisfiable_wait ] (hang_rules (wait_on q));
  let ok, cs = quorum_over ~q:(Depfast.Event.quorum (Depfast.Event.Count 2)) [ 0; 1; 2 ] in
  check_rules "count 2 of 3 is fine" []
    (hang_rules (fun sched ->
         wait_on ok sched;
         Depfast.Sched.spawn sched ~name:"replies" (fun () ->
             Depfast.Event.fire (List.nth cs 0);
             Depfast.Event.fire (List.nth cs 2))))

let test_dag_allow () =
  let lone () = Depfast.Event.rpc_completion ~label:"client->leader" ~peer:0 () in
  let ev = lone () in
  check_int "finding reported" 1 (List.length (audit_wait (ev, [ ev ])));
  let ev = lone () in
  check_int "but allowed" 0 (List.length (audit_wait ~allow:(fun ~node -> node = 9) (ev, [ ev ])))

(* Dead exports: every top-level [val] of an interface that no .ml outside
   its own module mentions, as ["file:line M.v"]. Uses are over-approximated
   so that it never raises a false alarm: a dotted [M.v] (behind any
   prefix), and a bare [v] or [X.v] in a file that opens [M] ([open M],
   [let open M], [M.( ... )]) or aliases it ([module X = ...M]). Values of
   nested signatures are out of scope. *)
let unused_exports ~mlis ~mls =
  let texts src = Array.map (fun t -> t.L.text) (L.scan src).L.tokens in
  let is_mod s = L.is_ident s && Char.uppercase_ascii s.[0] = s.[0] && s.[0] <> '_' in
  (* the last module name of the dotted path starting at [i] *)
  let rec path_end tk i =
    if i + 2 < Array.length tk && tk.(i + 1) = "." && is_mod tk.(i + 2) then path_end tk (i + 2)
    else tk.(i)
  in
  let uses =
    List.map
      (fun (path, src) ->
        let tk = texts src in
        let n = Array.length tk in
        let dotted = Hashtbl.create 64 and bare = Hashtbl.create 256 in
        let opened = Hashtbl.create 8 and alias = Hashtbl.create 8 in
        Array.iteri
          (fun i s ->
            Hashtbl.replace bare s ();
            if is_mod s && i + 2 < n && tk.(i + 1) = "." then begin
              if tk.(i + 2) = "(" then Hashtbl.replace opened s ()
              else Hashtbl.replace dotted (s, tk.(i + 2)) ()
            end;
            if s = "open" || s = "include" then begin
              let j = if i + 1 < n && tk.(i + 1) = "!" then i + 2 else i + 1 in
              if j < n && is_mod tk.(j) then Hashtbl.replace opened (path_end tk j) ()
            end;
            if s = "module" && i + 3 < n && is_mod tk.(i + 1) && tk.(i + 2) = "=" && is_mod tk.(i + 3)
            then Hashtbl.add alias (path_end tk (i + 3)) tk.(i + 1))
          tk;
        (path, fun m v ->
          Hashtbl.mem dotted (m, v)
          || (Hashtbl.mem opened m && Hashtbl.mem bare v)
          || List.exists (fun x -> Hashtbl.mem dotted (x, v)) (Hashtbl.find_all alias m)))
      mls
  in
  List.concat_map
    (fun (mli, src) ->
      let own = Filename.remove_extension mli ^ ".ml" in
      let m = String.capitalize_ascii (Filename.basename (Filename.remove_extension mli)) in
      let toks = (L.scan src).L.tokens in
      let depth = ref 0 and out = ref [] in
      Array.iteri
        (fun i t ->
          match t.L.text with
          | "sig" | "object" -> incr depth
          | "end" -> decr depth
          | "val" when !depth = 0 && i + 1 < Array.length toks && L.is_ident toks.(i + 1).L.text ->
            let v = toks.(i + 1).L.text in
            if not (List.exists (fun (path, used) -> path <> own && used m v) uses) then
              out := Printf.sprintf "%s:%d %s.%s" mli t.L.line m v :: !out
          | _ -> ())
        toks;
      List.rev !out)
    mlis

(* The tree the export guards read: lib's interfaces, and every .ml of
   lib, bin, bench, examples, perfbench and test (test/fixtures/ are lint
   inputs, not uses), each as (path, source). [None] outside a checkout. *)
let tree_sources () =
  let roots =
    List.filter Sys.file_exists
      (List.map (Filename.concat base) [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ])
  in
  if List.length roots <> 6 then None
  else begin
    let mls =
      List.filter
        (fun p -> not (List.mem "fixtures" (String.split_on_char '/' p)))
        (SL.ml_files roots)
    in
    let mlis =
      List.filter_map
        (fun ml ->
          let mli = ml ^ "i" in
          if Sys.file_exists mli then Some mli else None)
        (SL.ml_files [ Filename.concat base "lib" ])
    in
    check_bool "interfaces found" true (List.length mlis > 50);
    let read = List.map (fun p -> (p, In_channel.with_open_bin p In_channel.input_all)) in
    Some (read mlis, read mls)
  end

(* The guard over the tree; the synthetic set pins the guard's own rules. *)
let test_no_dead_exports () =
  check_rules "only the export used nowhere"
    [ "m.mli:4 M.dead" ]
    (unused_exports
       ~mlis:
         [ ("m.mli", "val via_alias : int\nval via_open : int\nval via_local_open : int\nval dead : int\n\
                      module V : sig\n  val nested : int\nend\n") ]
       ~mls:
         [
           ("m.ml", "let via_alias = 1 let via_open = 2 let via_local_open = 3 let dead = 4 let _ = dead");
           ("a.ml", "module X = Lib.M\nlet _ = X.via_alias");
           ("b.ml", "open M\nlet _ = via_open");
           ("c.ml", "let _ = M.(via_local_open + 1)");
         ]);
  match tree_sources () with
  | None -> ()
  | Some (mlis, mls) ->
    check_rules "exports nothing outside their module uses" [] (unused_exports ~mlis ~mls)

(* Unset options: every [?label:] of a top-level [val] of an interface
   whose label no .ml outside its own module passes, as
   ["file:line M.v ?label"]. Uses are over-approximated by label name — a
   [~label] or [?label] anywhere, for any function, in a call or a
   definition — so that it never raises a false alarm. The price: an
   option whose label name other code passes for another function goes
   unseen; the never-passed [Fig2.run ?seed], [Fig3.run_setup ?cfg] and
   [Ycsb.scaled ?value_size] were such, hidden by [Engine.create ~seed],
   the [~cfg] of the cluster builders and [Params]' [~value_size]. *)
let unset_options ~mlis ~mls =
  let passed = Hashtbl.create 256 in
  List.iter
    (fun (path, src) ->
      let tk = (L.scan src).L.tokens in
      Array.iteri
        (fun i t ->
          if (t.L.text = "~" || t.L.text = "?") && i + 1 < Array.length tk
             && L.is_ident tk.(i + 1).L.text
          then Hashtbl.add passed tk.(i + 1).L.text path)
        tk)
    mls;
  List.concat_map
    (fun (mli, src) ->
      let own = Filename.remove_extension mli ^ ".ml" in
      let m = String.capitalize_ascii (Filename.basename (Filename.remove_extension mli)) in
      let toks = (L.scan src).L.tokens in
      let n = Array.length toks in
      let depth = ref 0 and current = ref None and out = ref [] in
      Array.iteri
        (fun i t ->
          match t.L.text with
          | "sig" | "object" -> incr depth
          | "end" -> decr depth
          | "val" when !depth = 0 && i + 1 < n && L.is_ident toks.(i + 1).L.text ->
            current := Some toks.(i + 1).L.text
          | "type" | "module" | "exception" | "external" | "include" | "open" | "class"
            when !depth = 0 ->
            current := None
          | "?" when !depth = 0 && i + 2 < n && L.is_ident toks.(i + 1).L.text
                     && toks.(i + 2).L.text = ":" -> (
            let label = toks.(i + 1).L.text in
            match !current with
            | Some v when not (List.exists (( <> ) own) (Hashtbl.find_all passed label)) ->
              out := Printf.sprintf "%s:%d %s.%s ?%s" mli t.L.line m v label :: !out
            | _ -> ())
          | _ -> ())
        toks;
      List.rev !out)
    mlis

let test_no_unset_options () =
  check_rules "only the options no other module passes"
    [ "m.mli:1 M.f ?never"; "m.mli:3 M.h ?never" ]
    (unset_options
       ~mlis:
         [ ( "m.mli",
             "val f : ?called:int -> ?defined:int -> ?never:int -> unit -> unit\n\
              val g : ?own:int -> unit -> unit\n\
              val h : x:int -> ?never:bool -> unit\n\
              type t = { cb : ?own:int -> unit }\n\
              module V : sig\n  val nested : ?own:int -> unit\nend\n" ) ]
       ~mls:
         [
           ("m.ml", "let f ?called ?defined ?never () = () let g ?(own = 1) () = f ~never:own ()");
           ("a.ml", "let () = M.f ~called:1 (); M.g ?own:None ()");
           ("b.ml", "let k ?defined () = defined");
         ]);
  match tree_sources () with
  | None -> ()
  | Some (mlis, mls) ->
    check_rules "options some caller passes" [] (unset_options ~mlis ~mls)

(* Allocation ceilings for the static passes: minor words per file over
   lib/, the project loaded beforehand, so a pass pays for what it forces
   of the project's lazy tables. [Passes.run] reads 30 574 words per
   file, [Interproc] 1 726 and [Domains] 1 542 (one write scan per body,
   no call-graph closure). *)
let words_per_file what ~ceiling f =
  let files = SL.ml_files [ Filename.concat base "lib" ] in
  check_bool "sources found" true (List.length files > 50);
  let p = G.load_files files in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let r = f p in
  Gc.minor ();
  let words = (Gc.minor_words () -. w0) /. float_of_int (List.length files) in
  Printf.printf "%s over lib: %d file(s), %.0f minor words per file\n" what (List.length files)
    words;
  if words > ceiling then
    Alcotest.failf "%s: %.0f minor words per file > ceiling %.0f" what words ceiling;
  r

let test_passes_alloc_ceiling () =
  let r = words_per_file "passes" ~ceiling:34_000. Analysis.Passes.run in
  check_bool "findings" true (Analysis.Passes.findings r <> [])

let test_interproc_alloc_ceiling () =
  let fs = words_per_file "interproc" ~ceiling:2_500. Analysis.Interproc.analyze in
  check_bool "findings" true (fs <> [])

let test_domains_alloc_ceiling () =
  let _, certs, () = words_per_file "domains" ~ceiling:4_000. Analysis.Domains.analyze in
  check_bool "certificates" true (certs <> [])

let suite =
  [
    ( "lint.lexer",
      [
        Alcotest.test_case "positions" `Quick test_lexer_positions;
        Alcotest.test_case "comments/strings skipped" `Quick test_lexer_skips_noise;
        Alcotest.test_case "pragma parsing" `Quick test_lexer_pragma;
        Alcotest.test_case "dotted names" `Quick test_lexer_dotted;
        Alcotest.test_case "pragmas without tokens" `Quick test_lexer_pragmas_only;
      ] );
    ( "lint.source",
      [
        Alcotest.test_case "red wait (positive)" `Quick test_red_wait_positive;
        Alcotest.test_case "red wait (direct call)" `Quick test_red_wait_direct_call;
        Alcotest.test_case "red wait (negative: quorum)" `Quick test_red_wait_negative_quorum;
        Alcotest.test_case "disk wait severity" `Quick test_disk_wait_is_warning;
        Alcotest.test_case "unbounded (negative: timeout)" `Quick test_unbounded_negative_timeout;
        Alcotest.test_case "shadowing clears fact" `Quick test_shadowing_clears_fact;
        Alcotest.test_case "producer propagation" `Quick test_producer_propagation;
        Alcotest.test_case "tuple binding tracked" `Quick test_tuple_binding_tracked;
        Alcotest.test_case "tuple binding (negative)" `Quick test_tuple_binding_other_component;
        Alcotest.test_case "tuple producer function" `Quick test_tuple_producer_function;
        Alcotest.test_case "degenerate quorum (positive)" `Quick test_degenerate_quorum_positive;
        Alcotest.test_case "degenerate quorum (negative)" `Quick test_degenerate_quorum_negative;
        Alcotest.test_case "lock across wait (with_lock)" `Quick
          test_lock_across_wait_positive_applied;
        Alcotest.test_case "lock across wait (explicit)" `Quick
          test_lock_across_wait_positive_explicit;
        Alcotest.test_case "lock across wait (negative)" `Quick test_lock_across_wait_negative;
        Alcotest.test_case "pragma window" `Quick test_pragma_window;
        Alcotest.test_case "pragma out of window" `Quick test_pragma_too_far;
        Alcotest.test_case "unknown pragma id" `Quick test_unknown_pragma;
        Alcotest.test_case "pragma window (whole-project passes)" `Quick
          test_pass_pragma_window;
        Alcotest.test_case "pragma out of window (whole-project passes)" `Quick
          test_pass_pragma_too_far;
      ] );
    ( "lint.fixtures",
      [
        Alcotest.test_case "red wait pair" `Quick test_fixture_red_wait;
        Alcotest.test_case "lock pair" `Quick test_fixture_lock_across_wait;
        Alcotest.test_case "tuple red wait" `Quick test_fixture_tuple_red_wait;
        Alcotest.test_case "pragma" `Quick test_fixture_pragma;
        Alcotest.test_case "one pass per rule" `Quick test_one_pass_per_rule;
      ] );
    ( "lint.dag",
      [
        Alcotest.test_case "classify" `Quick test_dag_classify;
        Alcotest.test_case "red wait" `Quick test_dag_red_wait;
        Alcotest.test_case "orphan (positive)" `Quick test_dag_orphan_positive;
        Alcotest.test_case "orphan (negative)" `Quick test_dag_orphan_negative;
        Alcotest.test_case "vacuous quorum" `Quick test_dag_vacuous;
        Alcotest.test_case "allow predicate" `Quick test_dag_allow;
      ] );
    ( "lint.exports",
      [
        Alcotest.test_case "no dead exports" `Quick test_no_dead_exports;
        Alcotest.test_case "no unset options" `Quick test_no_unset_options;
      ] );
    ( "lint.alloc",
      [
        Alcotest.test_case "passes words per file" `Quick test_passes_alloc_ceiling;
        Alcotest.test_case "interproc words per file" `Quick test_interproc_alloc_ceiling;
        Alcotest.test_case "domains words per file" `Quick test_domains_alloc_ceiling;
      ] );
  ]
