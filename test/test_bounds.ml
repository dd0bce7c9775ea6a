(* Tests for the depfast-bounds pass and its dynamic cross-check: each
   fixture pair has a flagged variant and a bounded twin differing only
   in the evidence the pass looks for, plus regressions pinning the
   real tree (rethink_like flagged, pooled Net rings certified clean),
   stable finding ids, and the gauge sanitizer's certificate-mismatch
   on the seeded leaky-backlog scenario. *)

module F = Analysis.Finding
module B = Analysis.Bounds
module G = Analysis.Growth
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

let analyze name = B.analyze_files [ fixture name ]

let cert_for certs ~site ~kind =
  List.find_opt (fun c -> c.G.c_site = site && c.G.c_kind = kind) certs

let require_cert certs ~site ~kind ~verdict =
  match cert_for certs ~site ~kind with
  | Some c ->
    check_bool
      (Printf.sprintf "%s %s verdict" site kind)
      true
      (c.G.c_verdict = verdict);
    c
  | None -> Alcotest.failf "no %s certificate for site %s" kind site

(* ------------------------------------------------------------------ *)
(* growth: bounded ring vs unbounded append, behind an RPC handler *)

let test_ring_unbounded_flagged () =
  let fs, certs = analyze "bounds_ring_bad.ml" in
  check_rules "append with no drain or cap" [ F.unbounded_growth ] (rules fs);
  let c =
    require_cert certs ~site:"Bounds_ring_bad.outbox" ~kind:"queue" ~verdict:G.Flagged
  in
  check_int "sited at the growth op" 7 c.G.c_line

let test_ring_capacity_certified () =
  let fs, certs = analyze "bounds_ring_ok.ml" in
  check_rules "capacity check is evidence" [] (rules fs);
  let c =
    require_cert certs ~site:"Bounds_ring_ok.ring" ~kind:"queue" ~verdict:G.Bounded
  in
  check_bool "evidence names the check" true
    (String.length c.G.c_evidence > 0
    && String.sub c.G.c_evidence 0 14 = "capacity check")

(* ------------------------------------------------------------------ *)
(* counter windows: a counter bumped right after a match arrow is no
   window, since the [>] of [->] compares nothing; the same counter
   compared against a cap elsewhere on the handler's path is one *)

let counter_window ~compared =
  let src =
    Printf.sprintf
      {|type t = { mutable n : int }
let over t = t.n > 100
let bump t m =
  match m with
  | Some _ -> t.n <- t.n + 1
  | None -> %s
let install rpc t = Rpc.serve rpc ~node:0 ~handler:(fun ~src:_ m -> bump t m)
|}
      (if compared then "ignore (over t)" else "()")
  in
  B.analyze (G.load [ ("win.ml", src) ])

let test_counter_after_arrow_uncertified () =
  let fs, certs = counter_window ~compared:false in
  check_rules "a counter never flags" [] (rules fs);
  check_bool "no certificate from the match arrow" true
    (cert_for certs ~site:".n" ~kind:"counter-window" = None)

let test_counter_compared_certified () =
  let fs, certs = counter_window ~compared:true in
  check_rules "a counter never flags" [] (rules fs);
  let c = require_cert certs ~site:".n" ~kind:"counter-window" ~verdict:G.Bounded in
  check_int "sited at the increment" 5 c.G.c_line;
  check_bool "evidence is the cap comparison" true
    (String.starts_with ~prefix:"compared against a capacity at line 2" c.G.c_evidence)

(* ------------------------------------------------------------------ *)
(* admission control: the batched-leader shape — a capacity-checked
   admission queue behind the RPC handler plus a cons-accumulated
   forming buffer reset at flush — vs the twin with the evidence gone *)

let test_admission_unchecked_flagged () =
  let fs, certs = analyze "bounds_admission_bad.ml" in
  check_rules "unchecked admit and never-reset batch buffer"
    [ F.unbounded_growth ] (rules fs);
  check_int "both growth sites flagged" 2 (List.length fs);
  ignore
    (require_cert certs ~site:"Bounds_admission_bad.admit_q" ~kind:"queue"
       ~verdict:G.Flagged);
  ignore (require_cert certs ~site:".forming" ~kind:"cons" ~verdict:G.Flagged)

let test_admission_checked_certified () =
  let fs, certs = analyze "bounds_admission_ok.ml" in
  check_rules "depth check and per-flush reset are evidence" [] (rules fs);
  let c =
    require_cert certs ~site:"Bounds_admission_ok.admit_q" ~kind:"queue"
      ~verdict:G.Bounded
  in
  check_bool "evidence names the capacity check" true
    (String.length c.G.c_evidence > 14
    && String.sub c.G.c_evidence 0 14 = "capacity check");
  let c = require_cert certs ~site:".forming" ~kind:"cons" ~verdict:G.Bounded in
  check_bool "evidence names the reset" true
    (String.length c.G.c_evidence > 5 && String.sub c.G.c_evidence 0 5 = "reset")

(* ------------------------------------------------------------------ *)
(* timeout coverage: naked quorum wait vs deadline-guarded twin *)

let test_naked_quorum_wait_flagged () =
  let fs, certs = analyze "bounds_wait_bad.ml" in
  check_rules "untimed quorum wait on the handler path" [ F.missing_deadline ]
    (rules fs);
  check_bool "warning, not error" true
    (List.for_all (fun f -> f.F.severity = F.Warning) fs);
  ignore (require_cert certs ~site:"q" ~kind:"quorum-wait" ~verdict:G.Flagged)

let test_deadline_guarded_wait_certified () =
  let fs, certs = analyze "bounds_wait_ok.ml" in
  check_rules "wait_timeout discharges the obligation" [] (rules fs);
  let c = require_cert certs ~site:"q" ~kind:"quorum-wait" ~verdict:G.Bounded in
  Alcotest.(check string) "evidence" "deadline via Sched.wait_timeout" c.G.c_evidence

(* ------------------------------------------------------------------ *)
(* retry coverage: tight resend loop vs capped backoff twin; assertions
   stay on the Bounds pass output alone. *)

let test_unbounded_retry_flagged () =
  let fs, certs = analyze "bounds_retry_bad.ml" in
  check_bool "tight Timed_out resend loop flagged" true
    (List.exists
       (fun f ->
         f.F.rule = F.unbounded_retry
         && (match f.F.loc with F.File { line; _ } -> line = 5 | F.Node _ -> false))
       fs);
  ignore
    (require_cert certs ~site:"Bounds_retry_bad.send" ~kind:"retry" ~verdict:G.Flagged)

let test_capped_backoff_retry_certified () =
  let fs, certs = analyze "bounds_retry_ok.ml" in
  check_bool "no retry finding" false (List.mem F.unbounded_retry (rules fs));
  let c =
    require_cert certs ~site:"Bounds_retry_ok.send" ~kind:"retry" ~verdict:G.Bounded
  in
  Alcotest.(check string) "both kinds of evidence" "attempt bound and backoff sleep"
    c.G.c_evidence

(* ------------------------------------------------------------------ *)
(* the real tree: rethink_like stays flagged (acknowledged by pragma),
   the pooled Net outbox rings certify clean, and the library violates
   none of its own bounds rules — lib/check included *)

let tree () =
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | None -> None (* sources not materialized in this sandbox *)
  | Some root -> Some (B.analyze_files (Analysis.Source_lint.ml_files [ root ]))

let flagged_in fs suffix =
  List.exists
    (fun f ->
      f.F.rule = F.unbounded_growth
      && match f.F.loc with F.File { file; _ } -> Filename.basename file = suffix | F.Node _ -> false)
    fs

let test_tree_rethink_like_flagged () =
  match tree () with
  | None -> ()
  | Some (fs, certs) ->
    check_bool "rethink_like backlog flagged" true (flagged_in fs "rethink_like.ml");
    check_bool "shared baseline helpers flagged" true (flagged_in fs "common.ml");
    (* the baselines share DepFastRaft's pending queue but not its
       admission check: their enqueue stays flagged, DepFastRaft's
       certifies, and the pull follower's non-truncating append stays
       flagged beside the truncating one it does not run *)
    let verdict file site =
      List.filter_map
        (fun c ->
          if Filename.basename c.G.c_file = file && c.G.c_site = site then
            Some c.G.c_verdict
          else None)
        certs
    in
    check_bool "baselines' admission queue flagged" true
      (verdict "common.ml" ".pending_q" = [ G.Flagged ]);
    check_bool "DepFastRaft's admission queue certified" true
      (verdict "server.ml" ".pending_q" = [ G.Bounded ]);
    check_bool "mongo_like puller append flagged" true
      (verdict "mongo_like.ml" ".rlog" = [ G.Flagged ])

let test_tree_self_lint_clean () =
  (* every flagged growth site in the library carries its pragma, so
     nothing gates — the self-lint covering lib/check with the rest *)
  match tree () with
  | None -> ()
  | Some (fs, _) ->
    let bad = F.gating ~strict:true fs in
    if bad <> [] then
      Alcotest.failf "library violates its own bounds rules:\n%s"
        (String.concat "\n" (List.map F.to_string bad))

let test_tree_net_rings_certified () =
  match tree () with
  | None -> ()
  | Some (fs, certs) ->
    check_bool "pooled Net rings not flagged" false (flagged_in fs "net.ml");
    let bounded_counter file =
      List.exists
        (fun c ->
          Filename.basename c.G.c_file = file
          && c.G.c_kind = "counter-window" && c.G.c_verdict = G.Bounded)
        certs
    in
    check_bool "net.ml ring fill counter certified" true (bounded_counter "net.ml");
    check_bool "server.ml inflight window certified" true (bounded_counter "server.ml");
    check_bool "seeded fixture backlog statically certified" true
      (List.exists
         (fun c -> c.G.c_site = "Fixtures.backlog" && c.G.c_verdict = G.Bounded)
         certs)

let test_tree_admission_certified () =
  (* the real leader: the admission queue behind handle_client_request
     must certify Bounded — the depth check at the enqueue site is the
     evidence, with no new pragma. The batcher seals straight out of this
     queue into one array per batch, so it has no buffer of its own *)
  match tree () with
  | None -> ()
  | Some (_, certs) ->
    let bounded ~site ~kind =
      List.exists
        (fun c ->
          Filename.basename c.G.c_file = "server.ml"
          && c.G.c_site = site && c.G.c_kind = kind && c.G.c_verdict = G.Bounded)
        certs
    in
    check_bool "admission queue certified bounded" true
      (bounded ~site:".pending_q" ~kind:"queue")

(* ------------------------------------------------------------------ *)
(* stable ids: deterministic across runs, distinct across passes *)

let test_stable_ids () =
  let fs, _ = analyze "bounds_ring_bad.ml" in
  let f = List.hd fs in
  Alcotest.(check string) "deterministic"
    (F.stable_id ~pass:"bounds" f)
    (F.stable_id ~pass:"bounds" f);
  check_bool "pass name is part of the identity" true
    (F.stable_id ~pass:"bounds" f <> F.stable_id ~pass:"lint" f)

(* ------------------------------------------------------------------ *)
(* certificate: an allowed growth finding blocks bounded_clean but not
   the wait-structure clean *)

let test_bounded_clean_vs_clean () =
  let finding =
    {
      (F.v ~rule:F.unbounded_growth ~severity:F.Warning
         ~loc:(F.File { file = "lib/x/leaky.ml"; line = 3 })
         "backlog grows")
      with
      F.allowed = true;
    }
  in
  let certs = Check.Certificate.of_findings ~files:[ "lib/x/leaky.ml" ] [ finding ] in
  check_bool "pragma keeps the wait-structure certificate clean" true
    (Check.Certificate.clean certs "lib/x/leaky.ml");
  check_bool "but acknowledged growth is never bounded-clean" false
    (Check.Certificate.bounded_clean certs "lib/x/leaky.ml");
  Alcotest.(check (list string)) "recorded" [ "lib/x/leaky.ml" ]
    (Check.Certificate.growth_flagged_files certs)

(* ------------------------------------------------------------------ *)
(* the dynamic half: exploring leaky-backlog overflows the gauge, and
   with a certificate holding the fixture file clean the overflow
   escalates to certificate-mismatch *)

let scenario name =
  match Check.Registry.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

let budget = { E.default_budget with E.max_schedules = 200 }

let test_gauge_overflow_detected () =
  let res = E.explore ~budget (scenario "leaky-backlog") in
  check_bool "gauge overflow reported" true
    (List.mem F.queue_gauge_overflow (rules res.E.findings));
  check_bool "no certificate, no mismatch" false
    (List.mem F.certificate_mismatch (rules res.E.findings))

let test_gauge_certificate_mismatch () =
  (* statically the consumer's Queue.pop certifies the backlog bounded;
     dynamically the consumer parks on a gate that never fires, so the
     producer overruns the cap — exactly the gap the gauge closes *)
  let certs = Check.Certificate.of_findings ~files:[ "lib/check/fixtures.ml" ] [] in
  check_bool "fixture bounded-clean on paper" true
    (Check.Certificate.bounded_clean certs "lib/check/fixtures.ml");
  let res = E.explore ~budget ~certs (scenario "leaky-backlog") in
  let mm = List.filter (fun f -> f.F.rule = F.certificate_mismatch) res.E.findings in
  check_int "one mismatch for the gauge" 1 (List.length mm);
  check_bool "error severity" true
    (List.for_all (fun f -> f.F.severity = F.Error) mm);
  check_bool "watermark past the declared cap" true
    (List.exists
       (fun (o : Check.Sanitizer.overflow) ->
         o.Check.Sanitizer.o_label = "fx.backlog"
         && o.Check.Sanitizer.o_watermark > o.Check.Sanitizer.o_cap)
       (let r = E.run_one (scenario "leaky-backlog") ~prefix:[||] ~budget in
        r.E.r_overflows))

let test_gating_registry_gauge_clean () =
  (* the gauge sanitizer must stay silent on every gating scenario *)
  let sc = scenario "quorum-majority" in
  let res = E.explore ~budget:{ E.default_budget with E.max_schedules = 300 } sc in
  check_bool "no overflows on a clean scenario" false
    (List.mem F.queue_gauge_overflow (rules res.E.findings))

let suite =
  [
    ( "bounds.growth",
      [
        Alcotest.test_case "unbounded ring flagged" `Quick test_ring_unbounded_flagged;
        Alcotest.test_case "capacity-checked ring certified" `Quick
          test_ring_capacity_certified;
        Alcotest.test_case "unchecked admission flagged" `Quick
          test_admission_unchecked_flagged;
        Alcotest.test_case "checked admission certified" `Quick
          test_admission_checked_certified;
        Alcotest.test_case "counter after a match arrow uncertified" `Quick
          test_counter_after_arrow_uncertified;
        Alcotest.test_case "counter compared to a cap certified" `Quick
          test_counter_compared_certified;
      ] );
    ( "bounds.timeout",
      [
        Alcotest.test_case "naked quorum wait flagged" `Quick
          test_naked_quorum_wait_flagged;
        Alcotest.test_case "deadline-guarded wait certified" `Quick
          test_deadline_guarded_wait_certified;
        Alcotest.test_case "unbounded retry flagged" `Quick test_unbounded_retry_flagged;
        Alcotest.test_case "capped backoff certified" `Quick
          test_capped_backoff_retry_certified;
      ] );
    ( "bounds.tree",
      [
        Alcotest.test_case "rethink_like stays flagged" `Quick
          test_tree_rethink_like_flagged;
        Alcotest.test_case "self-lint clean incl. lib/check" `Quick
          test_tree_self_lint_clean;
        Alcotest.test_case "pooled Net rings certified" `Quick
          test_tree_net_rings_certified;
        Alcotest.test_case "admission queue + batch buffer certified" `Quick
          test_tree_admission_certified;
        Alcotest.test_case "stable finding ids" `Quick test_stable_ids;
      ] );
    ( "bounds.gauge",
      [
        Alcotest.test_case "bounded_clean vs clean" `Quick test_bounded_clean_vs_clean;
        Alcotest.test_case "gauge overflow detected" `Quick test_gauge_overflow_detected;
        Alcotest.test_case "certificate mismatch on leaky backlog" `Quick
          test_gauge_certificate_mismatch;
        Alcotest.test_case "clean scenario stays silent" `Quick
          test_gating_registry_gauge_clean;
      ] );
  ]
