(* Self-tests for the whole-project passes on fixture pairs: each half is
   clean on its own and flagged only when analyzed together, plus
   negatives, the one-rule-per-site contract, and a self-lint of the
   library sources. *)

module F = Analysis.Finding
module SL = Analysis.Source_lint
module IP = Analysis.Interproc
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

let pair a b = IP.analyze_files [ fixture a; fixture b ]
let ip_sources sources = IP.analyze (Analysis.Growth.load sources)

let per_file_clean name =
  check_rules (name ^ " clean on its own") [] (rules (Test_lint.lint_files [ fixture name ]))

(* ------------------------------------------------------------------ *)
(* cross-module red wait *)

let test_xmod_red_wait () =
  per_file_clean "xmod_producer.ml";
  per_file_clean "xmod_consumer.ml";
  let fs = Test_lint.lint_files [ fixture "xmod_producer.ml"; fixture "xmod_consumer.ml" ] in
  check_rules "red wait seen only whole-project" [ F.red_exposure ] (unallowed_rules fs);
  match fs with
  | [ f ] ->
    check_bool "error severity" true (f.F.severity = F.Error);
    check_bool "net exposure through the producer" true
      (String.starts_with ~prefix:"fate-sharing wait on ack is exposed to net-slow x peer"
         f.F.message);
    check_bool "located in the consumer" true
      (match f.F.loc with
      | F.File { file; _ } -> Filename.basename file = "xmod_consumer.ml"
      | F.Node _ -> false)
  | l -> Alcotest.failf "expected one cross-module finding, got %d" (List.length l)

let test_no_double_reporting () =
  (* one paper claim, one rule: the naked rpc wait is reported once, by
     red-exposure, not again by a per-file or cross-module twin *)
  let fs = Test_lint.lint_files [ fixture "red_wait_bad.ml" ] in
  match fs with
  | [ f ] ->
    check_bool "the one finding is red-exposure at the wait" true
      (f.F.rule = F.red_exposure
      && match f.F.loc with F.File { line; _ } -> line = 5 | F.Node _ -> false)
  | l -> Alcotest.failf "expected one finding, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* lock-order cycle *)

let test_lock_order_cycle () =
  per_file_clean "cycle_left.ml";
  per_file_clean "cycle_right.ml";
  let fs = pair "cycle_left.ml" "cycle_right.ml" in
  check_rules "two-module deadlock found" [ "lock-order-cycle" ] (unallowed_rules fs);
  match fs with
  | [ f ] ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check_bool "names both mutexes" true
      (contains f.F.message "Cycle_left.log_mu" && contains f.F.message "Cycle_right.snap_mu")
  | l -> Alcotest.failf "expected one cycle finding, got %d" (List.length l)

let test_lock_order_consistent () =
  (* same two modules, but both sides take log before snap: no cycle *)
  let left =
    {|let log_mu = Depfast.Mutex.create ()
let flush sched = Depfast.Mutex.with_lock sched log_mu (fun () -> Right.sync sched)
|}
  in
  let right =
    {|let snap_mu = Depfast.Mutex.create ()
let sync sched = Depfast.Mutex.with_lock sched snap_mu (fun () -> ())
let archive sched = Left.flush sched
|}
  in
  let fs = ip_sources [ ("left.ml", left); ("right.ml", right) ] in
  check_rules "consistent order is clean" [] (rules fs)

(* ------------------------------------------------------------------ *)
(* quorum arity *)

(* the pass that owns quorum-arity-mismatch, over in-memory sources *)
let spg_sources sources =
  let fs, _, _ = Analysis.Spg_static.analyze (G.load sources) in
  fs

let arity_use ~count =
  Printf.sprintf
    {|let replicate sched =
  let q = %s in
  List.iter
    (fun peer -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer ()))
    Cfg.replicas;
  Depfast.Sched.wait sched q
|}
    count

let arity_cfg needed =
  Printf.sprintf "let replicas = [ \"a\"; \"b\"; \"c\" ]\nlet needed = %d\n" needed

let test_quorum_arity_mismatch () =
  per_file_clean "arity_config.ml";
  per_file_clean "arity_use.ml";
  let fs, _, _ =
    Analysis.Spg_static.analyze_files [ fixture "arity_config.ml"; fixture "arity_use.ml" ]
  in
  check_rules "Count 5 over 3 children proven dead" [ "quorum-arity-mismatch" ]
    (unallowed_rules fs);
  (* the same quorum with a label, as every quorum in lib/ carries one *)
  let fs =
    spg_sources
      [
        ("cfg.ml", arity_cfg 5);
        ( "use.ml",
          arity_use
            ~count:{|Depfast.Event.quorum ~label:"acks" (Depfast.Event.Count Cfg.needed)|} );
      ]
  in
  check_rules "labelled Count 5 over 3 children proven dead" [ "quorum-arity-mismatch" ]
    (unallowed_rules fs)

let test_quorum_arity_satisfied () =
  let fs =
    spg_sources
      [
        ("cfg.ml", arity_cfg 2);
        ("use.ml", arity_use ~count:"Depfast.Event.quorum (Depfast.Event.Count Cfg.needed)");
      ]
  in
  check_rules "Count 2 over 3 children is fine" [] (rules fs)

(* ------------------------------------------------------------------ *)
(* suspension under a lock, across a call *)

let lock_across_call callee caller =
  per_file_clean callee;
  per_file_clean caller;
  let fs = pair callee caller in
  check_rules "hidden suspension under the lock" [ "lock-across-call" ] (unallowed_rules fs);
  match fs with
  | [ f ] ->
    check_bool "located at the call site" true
      (match f.F.loc with
      | F.File { file; _ } -> Filename.basename file = caller
      | F.Node _ -> false)
  | l -> Alcotest.failf "expected one finding, got %d" (List.length l)

let test_lock_across_call () = lock_across_call "iplock_callee.ml" "iplock_caller.ml"

(* the callee suspends in a held park, which registers on no event *)
let test_lock_across_call_held () =
  lock_across_call "iplock_held_callee.ml" "iplock_held_caller.ml"

(* the real station: a charge through [Station.run] suspends whatever
   the node it runs on, so a lock held across it is flagged at the call *)
let test_lock_across_station_charge () =
  match List.find_opt Sys.file_exists [ "../lib/cluster/station.ml"; "lib/cluster/station.ml" ] with
  | None -> () (* sources not materialized in this sandbox *)
  | Some station ->
    let caller =
      {|let mu = Depfast.Mutex.create ()
let apply sched st = Depfast.Mutex.with_lock sched mu (fun () -> Station.run st ~work:10)
|}
    in
    let fs =
      ip_sources
        [ ("station.ml", In_channel.with_open_bin station In_channel.input_all); ("caller.ml", caller) ]
    in
    check_bool "call to Station.run under the lock" true
      (List.exists
         (fun f ->
           f.F.rule = F.lock_across_call
           && String.starts_with ~prefix:"call to Station.run while holding" f.F.message)
         fs)

(* the callee's suspension lives in the [and] half of a [let rec] *)
let test_lock_across_call_and () =
  lock_across_call "iplock_and_callee.ml" "iplock_and_caller.ml"

let test_lock_across_call_pragma () =
  let caller =
    {|let mu = Depfast.Mutex.create ()
let commit sched ~peers =
  Depfast.Mutex.with_lock sched mu (fun () ->
      (* depfast-lint: allow lock-across-call — serialized on purpose *)
      Callee.await_majority sched ~peers)
|}
  in
  let callee =
    {|let await_majority sched ~peers =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  List.iter
    (fun peer -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer ()))
    peers;
  Depfast.Sched.wait sched q
|}
  in
  let fs = ip_sources [ ("caller.ml", caller); ("callee.ml", callee) ] in
  check_int "finding still reported" 1
    (List.length (List.filter (fun f -> f.F.rule = F.lock_across_call) fs));
  check_rules "but exempted by the pragma" [] (unallowed_rules fs)

(* A mutex held around the head of a call chain [depth] modules long
   whose last link waits: [c01.f] locks and calls [C02.f], each [cNN.f]
   calls the next, [cDD.f] suspends. The suspension reaches the lock
   however long the chain. *)
let call_chain depth =
  List.init depth (fun k ->
      let n = k + 1 in
      let next =
        if n = depth then "Depfast.Sched.wait sched ev" else Printf.sprintf "C%02d.f sched ev" (n + 1)
      in
      let src =
        if n = 1 then
          Printf.sprintf
            "let mu = Depfast.Mutex.create ()\n\
             let f sched ev = Depfast.Mutex.with_lock sched mu (fun () -> %s)\n"
            next
        else Printf.sprintf "let f sched ev = %s\n" next
      in
      (Printf.sprintf "c%02d.ml" n, src))

let test_lock_across_call_chain () =
  List.iter
    (fun depth ->
      let fs = ip_sources (call_chain depth) in
      let name = Printf.sprintf "chain of %d" depth in
      check_rules name [ F.lock_across_call ] (unallowed_rules fs);
      check_bool (name ^ ": at the locked call") true
        (List.map (fun f -> f.F.loc) fs = [ F.File { file = "c01.ml"; line = 2 } ]))
    [ 3; 10; 11; 12; 14 ]

(* ------------------------------------------------------------------ *)
(* argument flow into a waiting callee *)

let test_red_wait_via_argument () =
  let producer = "let begin_append ~peer = Depfast.Event.rpc_completion ~peer ()\n" in
  let waiter = "let settle sched ev = Depfast.Sched.wait sched ev\n" in
  let glue =
    {|let replicate sched ~peer =
  let ack = Producer.begin_append ~peer in
  Waiter.settle sched ack
|}
  in
  let fs, certs, _ =
    Analysis.Spg_static.analyze
      (G.load [ ("producer.ml", producer); ("waiter.ml", waiter); ("glue.ml", glue) ])
  in
  (* the waiting callee is unexposed — slowness arrives with its
     argument — so the caller that hands it a bare completion is judged *)
  check_bool "caller hands a bare completion to a waiting callee" true
    (List.exists
       (fun f ->
         f.F.rule = F.red_exposure && f.F.severity = F.Error
         && f.F.loc = F.File { file = "glue.ml"; line = 3 })
       fs);
  check_int "reported once, at the caller" 1 (List.length fs);
  check_bool "the callee's own wait stays certified red, unexposed" true
    (List.exists
       (fun c ->
         c.G.c_kind = "wait" && c.G.c_file = "waiter.ml"
         && c.G.c_evidence
            = "red wait in Waiter.settle: no slow-resource exposure reaches this wait")
       certs);
  (* the same callee handed a quorum: green at the call, nothing reported *)
  let glue =
    {|let replicate sched ~peers =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  List.iter (fun peer -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer ())) peers;
  Waiter.settle sched q
|}
  in
  let fs, certs, _ =
    Analysis.Spg_static.analyze (G.load [ ("waiter.ml", waiter); ("glue.ml", glue) ])
  in
  check_rules "a quorum handed to a waiting callee is green" [] (rules fs);
  check_bool "certified green at the call" true
    (List.exists
       (fun c ->
         c.G.c_kind = "wait" && c.G.c_file = "glue.ml" && c.G.c_line = 4
         && String.starts_with ~prefix:"green wait" c.G.c_evidence)
       certs)

(* ------------------------------------------------------------------ *)
(* self-lint: the library must hold itself to the whole-project rules *)

let test_self_lint () =
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | None -> ()  (* sources not materialized in this sandbox: nothing to check *)
  | Some root ->
    let files = Analysis.Source_lint.ml_files [ root ] in
    check_bool "found the library sources" true (List.length files > 10);
    let fs = IP.analyze_files files in
    let bad = F.gating ~strict:true fs in
    if bad <> [] then
      Alcotest.failf "library violates its own interprocedural rules:\n%s"
        (String.concat "\n" (List.map F.to_string bad))

(* ------------------------------------------------------------------ *)
(* the shared project model *)

let test_type_and_is_not_a_function () =
  let src =
    {|type a = { id : int }
and 'm b = { pump : unit -> unit; last : 'm option }

let pump () = ()
|}
  in
  let p = G.load [ ("net.ml", src) ] in
  Alcotest.(check (list string))
    "only the let item is a function" [ "Net.pump" ]
    (List.concat_map (fun fc -> List.map (fun f -> f.G.g_qname) fc.G.fc_fns) (G.files p));
  check_bool "no call edge to pump" false
    (List.exists (fun q -> List.mem "Net.pump" (G.callees p q)) [ "Net.m"; "Net.b"; "Net.a" ])

(* The drivers run every pass over one shared project, in any order;
   each pass must return exactly what it returns over a project of its
   own, so neither the cached growth result nor the lazily closed call
   graph may be mutated by a pass or depend on which pass came first. *)
let test_shared_model_equivalence () =
  let base = if Sys.file_exists "../lib" then ".." else "." in
  let roots =
    List.filter Sys.file_exists
      (List.map (Filename.concat base) [ "lib"; "bin"; "examples"; "bench" ])
  in
  if List.length roots = 4 then begin
    let files = SL.ml_files roots in
    let own_ip = IP.analyze_files files
    and own_b = Analysis.Bounds.analyze_files files
    and own_d = Analysis.Domains.analyze_files files
    and own_s = Analysis.Spg_static.analyze_files files in
    let shared order name =
      let p = G.load_files files in
      List.iter
        (function
          | `Interproc -> check_bool (name ^ ": interproc") true (IP.analyze p = own_ip)
          | `Bounds -> check_bool (name ^ ": bounds") true (Analysis.Bounds.analyze p = own_b)
          | `Domains -> check_bool (name ^ ": domains") true (Analysis.Domains.analyze p = own_d)
          | `Spg -> check_bool (name ^ ": spg") true (Analysis.Spg_static.analyze p = own_s))
        order
    in
    shared [ `Interproc; `Bounds; `Domains; `Spg ] "forward";
    shared [ `Spg; `Domains; `Bounds; `Interproc ] "reverse"
  end

let suite =
  [
    ( "interproc",
      [
        Alcotest.test_case "cross-module red wait" `Quick test_xmod_red_wait;
        Alcotest.test_case "no double reporting" `Quick test_no_double_reporting;
        Alcotest.test_case "lock-order cycle" `Quick test_lock_order_cycle;
        Alcotest.test_case "lock order (negative)" `Quick test_lock_order_consistent;
        Alcotest.test_case "quorum arity mismatch" `Quick test_quorum_arity_mismatch;
        Alcotest.test_case "quorum arity (negative)" `Quick test_quorum_arity_satisfied;
        Alcotest.test_case "lock across call" `Quick test_lock_across_call;
        Alcotest.test_case "lock across call (and-bound callee)" `Quick
          test_lock_across_call_and;
        Alcotest.test_case "lock across call (pragma)" `Quick test_lock_across_call_pragma;
        Alcotest.test_case "lock across a call into a held park" `Quick
          test_lock_across_call_held;
        Alcotest.test_case "lock across a station charge" `Quick
          test_lock_across_station_charge;
        Alcotest.test_case "lock across a call chain" `Quick test_lock_across_call_chain;
        Alcotest.test_case "red wait via argument" `Quick test_red_wait_via_argument;
        Alcotest.test_case "self-lint lib/" `Quick test_self_lint;
      ] );
    ( "project",
      [
        Alcotest.test_case "type ... and is not a function" `Quick
          test_type_and_is_not_a_function;
        Alcotest.test_case "one model, any pass order" `Quick test_shared_model_equivalence;
      ] );
  ]
