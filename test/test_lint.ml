(* Self-tests for the static fail-slow lint: tokenizer, source rules
   (positive and negative for each), pragma allowlisting, and the
   trace-free DAG checker. Fixture files live under test/fixtures/ and
   are scanned but never compiled. *)

module F = Analysis.Finding
module L = Analysis.Lexer
module SL = Analysis.Source_lint
module DL = Analysis.Dag_lint

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
  let r = L.scan "(* comment (* nested *) more *) \"a string (\" f {|quoted )|} 'c' g" in
  let texts = Array.to_list (Array.map (fun (t : L.token) -> t.L.text) r.L.tokens) in
  check_rules "only code survives" [ "f"; "g" ] texts

let test_lexer_pragma () =
  let r = L.scan "let a = 1\n(* depfast-lint: allow red-wait lock-across-wait — prose *)\nlet b = 2\n" in
  match r.L.pragmas with
  | [ p ] ->
    check_int "pragma line" 2 p.L.p_line;
    check_bool "rules captured" true
      (List.mem "red-wait" p.L.p_rules && List.mem "lock-across-wait" p.L.p_rules)
  | ps -> Alcotest.failf "expected one pragma, got %d" (List.length ps)

(* ------------------------------------------------------------------ *)
(* source lint: red / unbounded waits *)

let test_red_wait_positive () =
  let fs =
    SL.lint_string
      {|let f sched =
  let ev = Depfast.Event.rpc_completion ~peer:3 () in
  Depfast.Sched.wait sched ev
|}
  in
  check_rules "naked rpc wait is red and unbounded" [ "red-wait"; "unbounded-wait" ]
    (unallowed_rules fs)

let test_red_wait_direct_call () =
  let fs =
    SL.lint_string
      {|let f sched call = Depfast.Sched.wait sched (Cluster.Rpc.event call)
|}
  in
  check_rules "direct Rpc.event wait" [ "red-wait"; "unbounded-wait" ] (unallowed_rules fs)

let test_red_wait_negative_quorum () =
  let fs =
    SL.lint_string
      {|let f sched =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  Depfast.Sched.wait sched q
|}
  in
  check_rules "quorum wait is green" [] (rules fs)

let test_disk_wait_is_warning () =
  let fs =
    SL.lint_string
      {|let f sched d = Depfast.Sched.wait sched (Cluster.Disk.read d ~bytes:4096)
|}
  in
  check_rules "blocking disk read" [ "red-wait" ] (rules fs);
  match fs with
  | [ f ] -> check_bool "warning severity" true (f.F.severity = F.Warning)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_unbounded_negative_timeout () =
  let fs =
    SL.lint_string
      {|let f sched call span =
  ignore (Depfast.Sched.wait_timeout sched (Cluster.Rpc.event call) span)
|}
  in
  check_rules "timed wait is still red but bounded" [ "red-wait" ] (rules fs)

let test_shadowing_clears_fact () =
  let fs =
    SL.lint_string
      {|let f sched =
  let ev = Depfast.Event.rpc_completion ~peer:1 () in
  let ev = Depfast.Event.signal () in
  Depfast.Sched.wait sched ev
|}
  in
  check_rules "rebinding to a local event clears the remote fact" [] (rules fs)

let test_producer_propagation () =
  let fs =
    SL.lint_string
      {|let replica sched ~peer =
  let reply = Depfast.Event.rpc_completion ~peer () in
  ignore sched;
  reply

let f sched ~peer = Depfast.Sched.wait sched (replica sched ~peer)
|}
  in
  check_rules "wait on a local producer function"
    [ "red-wait"; "unbounded-wait" ] (unallowed_rules fs)

let test_tuple_binding_tracked () =
  (* regression: [let ev, meta = ...] used to launder the completion *)
  let fs =
    SL.lint_string
      {|let f sched ~peer =
  let ack, _meta = (Depfast.Event.rpc_completion ~peer (), peer) in
  Depfast.Sched.wait sched ack
|}
  in
  check_rules "tuple literal binding tracked" [ "red-wait"; "unbounded-wait" ]
    (unallowed_rules fs)

let test_tuple_binding_other_component () =
  let fs =
    SL.lint_string
      {|let f sched ~peer =
  let _meta, ack = (peer, Depfast.Event.signal ()) in
  let ev, _ = (Depfast.Event.rpc_completion ~peer (), peer) in
  ignore ev;
  Depfast.Sched.wait sched ack
|}
  in
  check_rules "non-remote component stays green" [] (rules fs)

let test_tuple_producer_function () =
  let fs =
    SL.lint_string
      {|let begin_call ~peer = (Depfast.Event.rpc_completion ~peer (), peer)

let f sched ~peer =
  let ack, _where = begin_call ~peer in
  Depfast.Sched.wait sched ack
|}
  in
  check_rules "completion tracked through a tuple-returning function"
    [ "red-wait"; "unbounded-wait" ] (unallowed_rules fs)

(* ------------------------------------------------------------------ *)
(* source lint: degenerate quorum *)

let test_degenerate_quorum_positive () =
  let fs =
    SL.lint_string
      {|let f sched ~peers =
  let all = Depfast.Event.and_ () in
  List.iter
    (fun p -> Depfast.Event.add all ~child:(Depfast.Event.rpc_completion ~peer:p ()))
    peers;
  Depfast.Sched.wait sched all
|}
  in
  check_rules "and_ over rpc completions" [ "degenerate-quorum" ] (rules fs)

let test_degenerate_quorum_negative () =
  let fs =
    SL.lint_string
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
(* source lint: lock across wait *)

let test_lock_across_wait_positive_applied () =
  let fs =
    SL.lint_string
      {|let f sched mu ~peer =
  Depfast.Mutex.with_lock sched mu @@ fun () ->
  let ev = Depfast.Event.rpc_completion ~peer () in
  Depfast.Sched.wait sched ev
|}
  in
  check_bool "with_lock @@ form caught" true
    (List.mem "lock-across-wait" (rules fs))

let test_lock_across_wait_positive_explicit () =
  let fs =
    SL.lint_string
      {|let f sched mu ev =
  Depfast.Mutex.lock sched mu;
  Depfast.Sched.wait sched ev;
  Depfast.Mutex.unlock mu
|}
  in
  check_rules "explicit lock/unlock caught" [ "lock-across-wait" ] (rules fs)

let test_lock_across_wait_negative () =
  let fs =
    SL.lint_string
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
    SL.lint_string
      {|let f sched =
  (* depfast-lint: allow red-wait unbounded-wait *)
  let ev = Depfast.Event.rpc_completion ~peer:1 () in
  Depfast.Sched.wait sched ev
|}
  in
  check_int "findings still reported" 2 (List.length fs);
  check_int "but all allowed" 0 (List.length (F.unallowed fs))

let test_pragma_too_far () =
  let fs =
    SL.lint_string
      {|let f sched =
  (* depfast-lint: allow red-wait unbounded-wait *)
  let a = 1 in
  let b = a in
  let c = b in
  let ev = Depfast.Event.rpc_completion ~peer:c () in
  Depfast.Sched.wait sched ev
|}
  in
  check_int "pragma out of its 3-line window" 2 (List.length (F.unallowed fs))

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
  let bad = SL.lint_file (fixture "red_wait_bad.ml") in
  check_rules "bad fixture flagged" [ "red-wait"; "unbounded-wait" ] (unallowed_rules bad);
  let ok = SL.lint_file (fixture "red_wait_ok.ml") in
  check_rules "quorum fixture clean" [] (rules ok)

let test_fixture_lock_across_wait () =
  let bad = SL.lint_file (fixture "lock_across_wait_bad.ml") in
  check_bool "bad fixture flagged" true (List.mem "lock-across-wait" (unallowed_rules bad));
  let ok = SL.lint_file (fixture "lock_across_wait_ok.ml") in
  check_rules "disciplined fixture clean" [] (rules ok)

let test_fixture_tuple_red_wait () =
  let fs = SL.lint_file (fixture "tuple_red_wait.ml") in
  check_rules "tuple fixture flagged" [ "red-wait"; "unbounded-wait" ] (unallowed_rules fs)

let test_fixture_pragma () =
  let fs = SL.lint_file (fixture "pragma_allowed.ml") in
  check_int "findings reported" 2 (List.length fs);
  check_int "all allowed" 0 (List.length (F.unallowed fs))

(* ------------------------------------------------------------------ *)
(* DAG checker *)

let quorum_over peers =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  let cs =
    List.map
      (fun p ->
        let c = Depfast.Event.rpc_completion ~peer:p () in
        Depfast.Event.add q ~child:c;
        c)
      peers
  in
  (q, cs)

let test_dag_classify () =
  let q, _ = quorum_over [ 0; 1; 2 ] in
  check_bool "majority quorum green" true (DL.classify q = `Green);
  let lone = Depfast.Event.rpc_completion ~peer:7 () in
  check_bool "lone rpc red" true (DL.classify lone = `Red [ 7 ])

let test_dag_red_wait () =
  let lone = Depfast.Event.rpc_completion ~peer:7 () in
  check_rules "red wait reported" [ "red-wait" ] (rules (DL.analyze lone));
  let q, _ = quorum_over [ 0; 1; 2 ] in
  check_rules "quorum clean" [] (rules (DL.analyze q))

let test_dag_orphan_positive () =
  (* an abandoned child can never fire *)
  let q, cs = quorum_over [ 0; 1; 2 ] in
  Depfast.Event.abandon (List.nth cs 2);
  check_bool "abandoned child is an orphan" true (List.mem "orphan-wait" (rules (DL.analyze q)));
  (* with an explicit firer list, unregistered events are orphans and a
     2-of-3 quorum with one live firer cannot fire either *)
  let q2, cs2 = quorum_over [ 0; 1; 2 ] in
  let fs = DL.analyze ~firers:[ List.nth cs2 0 ] q2 in
  check_bool "unfirable children are orphans" true (List.mem "orphan-wait" (rules fs));
  check_bool "quorum itself cannot fire" true
    (List.exists
       (fun f -> f.F.rule = "orphan-wait" && f.F.loc = F.Node
          { event_id = Depfast.Event.id q2; event_label = Depfast.Event.label q2 })
       fs)

let test_dag_orphan_negative () =
  let q, cs = quorum_over [ 0; 1; 2 ] in
  let fs = DL.analyze ~firers:cs q in
  check_bool "fully registered quorum has no orphans" false
    (List.mem "orphan-wait" (rules fs));
  (* a fired quorum with a discarded straggler is not an orphan *)
  let q2, cs2 = quorum_over [ 0; 1; 2 ] in
  Depfast.Event.fire (List.nth cs2 0);
  Depfast.Event.fire (List.nth cs2 1);
  Depfast.Event.abandon (List.nth cs2 2);
  check_bool "straggler under a fired quorum ignored" false
    (List.mem "orphan-wait" (rules (DL.analyze ~firers:cs2 q2)))

let test_dag_vacuous () =
  let q = Depfast.Event.quorum (Depfast.Event.Count 5) in
  List.iter
    (fun p -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer:p ()))
    [ 0; 1; 2 ];
  check_bool "count 5 of 3 is vacuous" true (List.mem "vacuous-quorum" (rules (DL.analyze q)));
  let ok = Depfast.Event.quorum (Depfast.Event.Count 2) in
  List.iter
    (fun p -> Depfast.Event.add ok ~child:(Depfast.Event.rpc_completion ~peer:p ()))
    [ 0; 1; 2 ];
  check_bool "count 2 of 3 is fine" false (List.mem "vacuous-quorum" (rules (DL.analyze ok)))

let test_dag_allow () =
  let lone = Depfast.Event.rpc_completion ~label:"client->leader" ~peer:0 () in
  let allow ~rule e = rule = "red-wait" && Depfast.Event.label e = "client->leader" in
  let fs = DL.analyze ~allow lone in
  check_int "finding still reported" 1 (List.length fs);
  check_int "but allowed" 0 (List.length (F.unallowed fs))

let suite =
  [
    ( "lint.lexer",
      [
        Alcotest.test_case "positions" `Quick test_lexer_positions;
        Alcotest.test_case "comments/strings skipped" `Quick test_lexer_skips_noise;
        Alcotest.test_case "pragma parsing" `Quick test_lexer_pragma;
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
  ]
