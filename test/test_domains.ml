(* Tests for the depfast-domains pass and its DPOR feed: each verdict
   class has a clean fixture and a broken (or pragma'd) twin, the
   interprocedural effect fixpoint is exercised through a callee-only
   write, regressions pin the real tree's inventory, and the explorer
   tests prove the independence feed prunes provably-disjoint scenarios
   while the probe cross-check catches a seeded false-independence
   claim. *)

module F = Analysis.Finding
module D = Analysis.Domains
module G = Analysis.Growth
module Ef = Analysis.Effects
module E = Check.Explore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_rules = Alcotest.(check (list string))

let rules fs = List.sort_uniq compare (List.map (fun f -> f.F.rule) fs)

let fixture name =
  let cands = [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ] in
  match List.find_opt Sys.file_exists cands with
  | Some p -> p
  | None -> Alcotest.fail ("fixture not found: " ^ name)

let analyze name = D.analyze_files [ fixture name ]

let cert_for certs ~site = List.find_opt (fun c -> c.D.c_site = site) certs

let has_class c cls =
  String.length c.D.c_evidence >= String.length cls
  && String.sub c.D.c_evidence 0 (String.length cls) = cls

let require_cert certs ~site ~cls ~verdict =
  match cert_for certs ~site with
  | Some c ->
    check_bool (Printf.sprintf "%s verdict" site) true (c.D.c_verdict = verdict);
    check_bool (Printf.sprintf "%s evidence class is %s" site cls) true (has_class c cls);
    c
  | None -> Alcotest.failf "no domain certificate for site %s" site

(* ------------------------------------------------------------------ *)
(* verdict classes: clean fixture vs broken twin, one pair per class *)

let test_immutable_certified () =
  let fs, certs, _ = analyze "dom_immutable_ok.ml" in
  check_rules "read-only table is clean" [] (rules fs);
  let c =
    require_cert certs ~site:"Dom_immutable_ok.limits" ~cls:D.class_immutable
      ~verdict:G.Bounded
  in
  Alcotest.(check string) "inventoried as a hashtbl" "hashtbl" c.D.c_kind

let test_immutable_broken_flagged () =
  let fs, certs, _ = analyze "dom_immutable_bad.ml" in
  check_rules "one unlocked write breaks the verdict" [ F.unsafe_shared_state ]
    (rules fs);
  ignore
    (require_cert certs ~site:"Dom_immutable_bad.limits" ~cls:D.class_unsafe
       ~verdict:G.Flagged);
  check_bool "finding sited at the cell definition" true
    (List.exists
       (fun f -> match f.F.loc with F.File { line; _ } -> line = 4 | F.Node _ -> false)
       fs)

let test_engine_owned_certified () =
  let fs, certs, _ = analyze "dom_engine_ok.ml" in
  check_rules "threaded record writes are domain-local" [] (rules fs);
  ignore (require_cert certs ~site:".depth" ~cls:D.class_engine ~verdict:G.Bounded)

let test_engine_broken_global_flagged () =
  (* same field writes, but the owner record is itself a module-level
     global — the sharing judgment lands on the base cell *)
  let fs, certs, _ = analyze "dom_engine_bad.ml" in
  check_rules "global record base flagged" [ F.unsafe_shared_state ] (rules fs);
  ignore
    (require_cert certs ~site:"Dom_engine_bad.shared" ~cls:D.class_unsafe
       ~verdict:G.Flagged);
  ignore (require_cert certs ~site:".depth" ~cls:D.class_engine ~verdict:G.Bounded)

let test_guarded_certified () =
  let fs, certs, _ = analyze "dom_guarded_ok.ml" in
  check_rules "all writes under the Mutex region" [] (rules fs);
  ignore
    (require_cert certs ~site:"Dom_guarded_ok.hits" ~cls:D.class_guarded
       ~verdict:G.Bounded)

let test_guarded_broken_flagged () =
  let fs, certs, _ = analyze "dom_guarded_bad.ml" in
  check_rules "one write path outside the lock forfeits guarded"
    [ F.unsafe_shared_state ] (rules fs);
  ignore
    (require_cert certs ~site:"Dom_guarded_bad.hits" ~cls:D.class_unsafe
       ~verdict:G.Flagged)

let test_unsafe_flagged_error () =
  let fs, certs, _ = analyze "dom_unsafe_bad.ml" in
  check_rules "bare shared ref flagged" [ F.unsafe_shared_state ] (rules fs);
  check_bool "error severity" true (List.for_all (fun f -> f.F.severity = F.Error) fs);
  let c =
    require_cert certs ~site:"Dom_unsafe_bad.total" ~cls:D.class_unsafe
      ~verdict:G.Flagged
  in
  check_int "certificate sited at the cell definition" 5 c.D.c_line

let test_unsafe_pragma_allowed () =
  let fs, _, _ = analyze "dom_unsafe_allowed.ml" in
  check_bool "finding still reported" true (fs <> []);
  check_bool "but carried as allowed" true (List.for_all (fun f -> f.F.allowed) fs);
  check_rules "nothing gates" [] (rules (F.gating ~strict:true fs))

(* ------------------------------------------------------------------ *)
(* the effect fixpoint: dom_unsafe_bad's [add] never writes the cell
   directly — the write flows up from [raw_add] through the call graph *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_interproc_write_propagates () =
  let path = fixture "dom_unsafe_bad.ml" in
  let eff = Ef.compute (G.load [ (path, read_file path) ]) in
  match Ef.fn_summary eff "Dom_unsafe_bad.add" with
  | None -> Alcotest.fail "no summary for Dom_unsafe_bad.add"
  | Some s ->
    check_bool "callee write visible in the caller's closed footprint" true
      (List.mem "Dom_unsafe_bad.total" s.Analysis.Summary.writes)

(* ------------------------------------------------------------------ *)
(* the real tree: inventory counts pinned, every unsafe-shared verdict
   pragma'd, and the key cells carry the expected verdicts *)

let tree () =
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | None -> None (* sources not materialized in this sandbox *)
  | Some root -> Some (D.analyze_files (Analysis.Source_lint.ml_files [ root ]))

let test_tree_inventory_pinned () =
  match tree () with
  | None -> ()
  | Some (fs, certs, footprints) ->
    (* 185 since the dead exports went, and with them the state only they
       read: the client's .attempted and .failed, the node's
       .crash_hooks and the detector's .suspected. 189 before, since the
       explorer reuses one run state per exploration: the
       engine's live timer tags .tt_seqs .tt_tags .tt_n (replacing the
       seq-keyed table), the sanitizer's flat shadow .coros .parked
       .n_parked and its per-run provenance map .file_of, and the
       explorer state's per-run cursor .st_prefix .st_max_steps
       .st_nsteps .st_steps .st_last_writer came. 177 before, since each
       paper claim kept one static rule: the
       interprocedural summary's remote-completion facts .ret and
       .wait_params went. 179 before, since the wait trace went flat:
       its ring field .buf, the
       per-wait record's .stallers_memo and the Trace.dummy_wait slot
       filler went, and the column set's field .cols and Spg's per-key
       tally cell .hits came. 180 before, since the static passes share
       one project model: the call
       graph's .edges and the interprocedural pass's per-file .fns went
       (its .units went too, so that cell is now sited at
       lib/cluster/net.ml); 182 before, since the
       allocation-free engine containers: the engine's ready
       ring .r_ring .r_head .r_len, the intrusive wheel's .next and
       .due_last (replacing .due_tail; the far heap's .heap_h went), the
       station's server slots .slots .n_slots .s_event .s_busy .s_done and
       wait ring .q_work .q_ev .q_head .q_len, and the sanitizer probe's
       .p_seen. 169 before, since the scheduler's per-coroutine parking
       slot added its six
       fields .park_ev .park_span .park_start .park_k .park_timer
       .park_gen, and the scheduler's shared effect handler its field
       .coro_handler; 162 before, after the shard pool and the domain-pool
       barrier went: their fields .sh_seq .sh_ops .sh_failed .sh_shed
       .sh_cross_out .sh_cross_in .waiting .gen, plus
       Registry.condvar_handshake, a record literal inventoried only
       because its local [gen] shared a name with the barrier's mutable
       field *)
    check_int "every top-level mutable cell carries a certificate" 185
      (List.length certs);
    let flagged = List.filter (fun c -> c.D.c_verdict = G.Flagged) certs in
    Alcotest.(check (list string)) "exactly the three seeded fixture cells unsafe"
      [ "Fixture_dom_a.track"; "Fixture_spg.mailbox"; "Fixtures.backlog" ]
      (List.sort compare (List.map (fun c -> c.D.c_site) flagged));
    check_bool "both acknowledged by pragma" true (List.for_all (fun f -> f.F.allowed) fs);
    check_rules "zero unallowed unsafe-shared verdicts" []
      (rules (F.gating ~strict:true fs));
    check_bool "every file has a footprint row" true
      (List.length footprints > 60)

let test_tree_key_verdicts () =
  match tree () with
  | None -> ()
  | Some (_, certs, _) ->
    let c =
      require_cert certs ~site:"Event.next_id" ~cls:D.class_guarded ~verdict:G.Bounded
    in
    Alcotest.(check string) "next_id is the Atomic fix" "atomic" c.D.c_kind;
    ignore
      (require_cert certs ~site:"Event.dummy" ~cls:D.class_immutable ~verdict:G.Bounded);
    ignore
      (require_cert certs ~site:"Fixture_dom_b.counter" ~cls:D.class_guarded
         ~verdict:G.Bounded)

(* ------------------------------------------------------------------ *)
(* the DPOR feed: file-level independence from the effect footprints *)

let certs_for_tree =
  lazy
    (match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
    | None -> None
    | Some root -> Some (Check.Certificate.build ~roots:[ root ] ()))

let test_independence_relation () =
  match Lazy.force certs_for_tree with
  | None -> ()
  | Some certs ->
    let indep = Check.Certificate.independent certs in
    check_bool "disjoint fixture pair independent" true
      (indep "lib/check/fixture_dom_a.ml" "lib/check/fixture_dom_b.ml");
    check_bool "symmetric" true
      (indep "lib/check/fixture_dom_b.ml" "lib/check/fixture_dom_a.ml");
    check_bool "same-file pairs never independent" false
      (indep "lib/check/fixture_dom_a.ml" "lib/check/fixture_dom_a.ml");
    check_bool "shared-cell pair conflicts" false
      (indep "lib/check/fixtures.ml" "lib/check/registry.ml");
    check_bool "unknown files never independent" false
      (indep "lib/check/fixture_dom_a.ml" "lib/nowhere/ghost.ml")

(* ------------------------------------------------------------------ *)
(* the explorer: the feed collapses the provably-disjoint scenario to a
   single schedule, leaves same-file scenarios untouched, and the probe
   cross-check catches the seeded false-independence claim *)

let scenario name =
  match Check.Registry.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

let budget = { E.default_budget with E.max_schedules = 400 }

let test_disjoint_scenario_pruned () =
  match Lazy.force certs_for_tree with
  | None -> ()
  | Some certs ->
    let res = E.explore ~budget ~certs (scenario "domains-disjoint") in
    check_rules "clean under the feed" [] (rules res.E.findings);
    check_int "one schedule suffices for two disjoint files" 1 res.E.schedules;
    check_bool "the feed did the pruning" true (res.E.pruned > 0);
    let off = E.explore ~budget (scenario "domains-disjoint") in
    check_rules "still clean without the feed" [] (rules off.E.findings);
    check_bool "without the feed the interleavings come back" true (off.E.schedules > 1)

let test_false_independence_caught () =
  match Lazy.force certs_for_tree with
  | None -> ()
  | Some certs ->
    let res = E.explore ~budget ~certs (scenario "domains-false-independence") in
    check_bool "probe cross-check raises certificate-mismatch" true
      (List.mem F.certificate_mismatch (rules res.E.findings));
    check_bool "the mismatch names the probed cell" true
      (List.exists
         (fun f ->
           f.F.rule = F.certificate_mismatch
           && String.length f.F.message > 0
           &&
           let re = "dom.track" in
           let rec find i =
             i + String.length re <= String.length f.F.message
             && (String.sub f.F.message i (String.length re) = re || find (i + 1))
           in
           find 0)
         res.E.findings);
    let off = E.explore ~budget (scenario "domains-false-independence") in
    check_rules "no feed, no claim, no mismatch" [] (rules off.E.findings)

let test_probe_sees_both_writers () =
  (* the raw run-level evidence behind the cross-check: the program-order
     schedule already shows both files mutating the probed queue *)
  let r = E.run_one (scenario "domains-false-independence") ~prefix:[||] ~budget in
  match List.find_opt (fun (label, _, _) -> label = "dom.track") r.E.r_probes with
  | None -> Alcotest.fail "no dom.track probe in the run record"
  | Some (_, owner, writers) ->
    let files = List.sort_uniq compare (owner :: writers) in
    check_bool "fixture A mutates the cell" true
      (List.mem "lib/check/fixture_dom_a.ml" files);
    check_bool "fixture B mutates the cell through the escaped alias" true
      (List.mem "lib/check/fixture_dom_b.ml" files)

let test_broken_quorum_unaffected () =
  (* same-file pairs are never independent, so the feed must neither
     prune nor change coverage on the existing seeded scenario *)
  match Lazy.force certs_for_tree with
  | None -> ()
  | Some certs ->
    let sc = scenario "broken-quorum" in
    let on = E.explore ~certs sc in
    let off = E.explore sc in
    check_int "identical schedule count" off.E.schedules on.E.schedules;
    check_int "feed prunes nothing on a same-file scenario" 0 on.E.pruned;
    check_bool "the quorum violation is still detected" true (on.E.findings <> []);
    (* feed-on also carries the wait-structure certificate-mismatch for
       the seeded violation in a certified-clean file — the pre-existing
       cross-check; the dynamic findings themselves must be identical *)
    check_rules "identical dynamic findings either way" (rules off.E.findings)
      (rules
         (List.filter (fun f -> f.F.rule <> F.certificate_mismatch) on.E.findings))

let suite =
  [
    ( "domains.verdicts",
      [
        Alcotest.test_case "read-only table immutable" `Quick test_immutable_certified;
        Alcotest.test_case "written table flagged" `Quick test_immutable_broken_flagged;
        Alcotest.test_case "threaded record engine-owned" `Quick
          test_engine_owned_certified;
        Alcotest.test_case "global record base flagged" `Quick
          test_engine_broken_global_flagged;
        Alcotest.test_case "mutex-guarded counter certified" `Quick
          test_guarded_certified;
        Alcotest.test_case "unlocked write path flagged" `Quick
          test_guarded_broken_flagged;
        Alcotest.test_case "bare shared ref is an error" `Quick test_unsafe_flagged_error;
        Alcotest.test_case "pragma acknowledges without gating" `Quick
          test_unsafe_pragma_allowed;
        Alcotest.test_case "write propagates through callees" `Quick
          test_interproc_write_propagates;
      ] );
    ( "domains.tree",
      [
        Alcotest.test_case "inventory counts pinned" `Quick test_tree_inventory_pinned;
        Alcotest.test_case "key cell verdicts" `Quick test_tree_key_verdicts;
      ] );
    ( "domains.feed",
      [
        Alcotest.test_case "independence relation" `Quick test_independence_relation;
        Alcotest.test_case "disjoint scenario collapses to one schedule" `Quick
          test_disjoint_scenario_pruned;
        Alcotest.test_case "seeded false independence caught" `Quick
          test_false_independence_caught;
        Alcotest.test_case "probes record both writers" `Quick
          test_probe_sees_both_writers;
        Alcotest.test_case "broken-quorum coverage unchanged" `Quick
          test_broken_quorum_unaffected;
      ] );
  ]
