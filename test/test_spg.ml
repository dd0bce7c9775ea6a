(* Tests for the depfast-spg pass and its dynamic cross-check: fixture
   pairs covering the four exposure shapes (disk red wait, net green
   quorum, tainted arity, timeout escape), tree-wide pins over the real
   library, determinism of the emitted certificates, the synthetic
   exposure-map queries on {!Check.Certificate}, and the seeded
   alias-blindspot scenario reproducing [certificate-mismatch]. *)

module F = Analysis.Finding
module S = Analysis.Spg_static
module G = Analysis.Growth
module E = Check.Explore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_rules = Alcotest.(check (list string))

let rules fs = List.sort_uniq compare (List.map (fun f -> f.F.rule) fs)

let contains ~needle hay =
  let nh = String.length needle and h = String.length hay in
  let rec go i = i + nh <= h && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

let message_contains fs needle =
  List.exists (fun f -> contains ~needle f.F.message) fs

let fixture name =
  let cands = [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ] in
  match List.find_opt Sys.file_exists cands with
  | Some p -> p
  | None -> Alcotest.fail ("fixture not found: " ^ name)

let analyze name = S.analyze_files [ fixture name ]

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
(* disk -> red wait: bare completion wait vs deadline-covered twin *)

let test_disk_bare_wait_flagged () =
  let fs, certs, _ = analyze "spg_disk_bad.ml" in
  check_rules "fate-sharing disk wait" [ F.red_exposure ] (rules fs);
  check_bool "exposure names the kind and role" true
    (message_contains fs "disk-slow x self");
  ignore (require_cert certs ~site:"done_" ~kind:"wait" ~verdict:G.Flagged);
  let c =
    require_cert certs ~site:"disk-slow->done_" ~kind:"propagation" ~verdict:G.Flagged
  in
  check_bool "witness path runs seed-first" true (contains ~needle:"role=self" c.G.c_evidence);
  check_bool "seed is the Disk.write site" true
    (contains ~needle:"seed Disk.write" c.G.c_evidence)

let test_disk_deadline_certified () =
  let fs, certs, _ = analyze "spg_disk_ok.ml" in
  check_rules "wait_timeout discharges the exposure" [] (rules fs);
  let c = require_cert certs ~site:"done_" ~kind:"wait" ~verdict:G.Bounded in
  check_bool "still red, but covered" true
    (contains ~needle:"deadline-covered" c.G.c_evidence)

(* ------------------------------------------------------------------ *)
(* net -> green quorum: single-peer wait vs Rpc.broadcast k-of-n *)

let test_net_single_peer_flagged () =
  let fs, certs, _ = analyze "spg_net_bad.ml" in
  check_rules "single reply fate-shares with its peer" [ F.red_exposure ] (rules fs);
  check_bool "net exposure is always peer-role" true
    (message_contains fs "net-slow x peer");
  ignore (require_cert certs ~site:"reply" ~kind:"wait" ~verdict:G.Flagged)

let test_net_broadcast_quorum_green () =
  let fs, certs, exposures = analyze "spg_net_ok.ml" in
  check_rules "the broadcast quorum outvotes a slow peer" [] (rules fs);
  let c = require_cert certs ~site:"quorum quorum" ~kind:"wait" ~verdict:G.Bounded in
  check_bool "green verdict in the evidence" true
    (contains ~needle:"green wait" c.G.c_evidence);
  match exposures with
  | [ (_, xs) ] ->
    Alcotest.(check (list (pair string string)))
      "file exposure map records the green net edge" [ ("net-slow", "green") ] xs
  | other -> Alcotest.failf "expected one exposed file, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* tainted arity: the mitigation's own k controlled by the slow
   resource, vs an untainted constant — the quorum-arity-mismatch claim
   seen through the exposure map *)

let test_tainted_arity_flagged () =
  let fs, _, _ = analyze "spg_arity_bad.ml" in
  check_rules "Count arity flows from a net-tainted callee"
    [ F.quorum_arity_mismatch ] (rules fs);
  check_bool "names the tainted callee" true (message_contains fs "count_live")

let test_untainted_arity_clean () =
  let fs, _, _ = analyze "spg_arity_ok.ml" in
  check_rules "constant arity keeps the green verdict" [] (rules fs)

(* ------------------------------------------------------------------ *)
(* timeout escape: all-peers and_ bare vs raced against a timer *)

let test_and_uncovered_flagged () =
  let fs, certs, _ = analyze "spg_timeout_bad.ml" in
  check_rules "and_ fate-shares with every child" [ F.red_exposure ] (rules fs);
  ignore (require_cert certs ~site:"and_ both" ~kind:"wait" ~verdict:G.Flagged)

let test_or_timer_escape_clean () =
  let fs, certs, _ = analyze "spg_timeout_ok.ml" in
  check_rules "or_ against a timer is an escape" [] (rules fs);
  ignore (require_cert certs ~site:"or_ guarded" ~kind:"wait" ~verdict:G.Bounded)

(* ------------------------------------------------------------------ *)
(* the real tree: pins over lib/ *)

let tree =
  lazy
    (match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
    | None -> None (* sources not materialized in this sandbox *)
    | Some root -> Some (S.analyze_files (Analysis.Source_lint.ml_files [ root ])))

let exposure_for exposures base =
  List.find_opt (fun (p, _) -> Filename.basename p = base) exposures

let test_tree_self_lint_clean () =
  match Lazy.force tree with
  | None -> ()
  | Some (fs, _, _) ->
    let bad = F.gating ~strict:true fs in
    if bad <> [] then
      Alcotest.failf "library violates its own spg rules:\n%s"
        (String.concat "\n" (List.map F.to_string bad))

let test_tree_server_red_disk_exposure () =
  (* the leader's own-WAL waits: statically red and disk-exposed (the
     pragma acknowledges them) — the staleness warning's subject *)
  match Lazy.force tree with
  | None -> ()
  | Some (_, _, exposures) -> (
    match exposure_for exposures "server.ml" with
    | None -> Alcotest.fail "no exposure row for lib/raft/server.ml"
    | Some (_, xs) ->
      check_bool "red disk-slow exposure recorded" true
        (List.mem ("disk-slow", "red") xs))

let test_tree_blindspot_file_unexposed () =
  (* the whole point of the fixture: the net-slow source escapes through
     the mailbox alias, so the static map must record NO net exposure *)
  match Lazy.force tree with
  | None -> ()
  | Some (_, _, exposures) -> (
    match exposure_for exposures "fixture_spg.ml" with
    | None -> () (* no waits exposed at all: fine *)
    | Some (_, xs) ->
      check_bool "no net-slow exposure through the alias" false
        (List.exists (fun (k, _) -> k = "net-slow") xs))

let test_tree_certificate_volume () =
  match Lazy.force tree with
  | None -> ()
  | Some (_, certs, _) ->
    let prop = List.filter (fun c -> c.G.c_kind = "propagation") certs in
    check_bool "at least 20 propagation certificates" true (List.length prop >= 20);
    check_bool "every wait yields a wait certificate" true
      (List.exists (fun c -> c.G.c_kind = "wait") certs)

let test_tree_deterministic_output () =
  (* two full runs must agree byte-for-byte on the emitted certificates *)
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | None -> ()
  | Some root ->
    let files = Analysis.Source_lint.ml_files [ root ] in
    let dump () =
      let _, certs, _ = S.analyze_files files in
      String.concat "\n" (List.map G.cert_to_json certs)
    in
    Alcotest.(check string) "byte-identical across runs" (dump ()) (dump ())

let test_stable_ids () =
  let fs, _, _ = analyze "spg_disk_bad.ml" in
  let f = List.hd fs in
  Alcotest.(check string) "deterministic"
    (F.stable_id ~pass:"spg" f)
    (F.stable_id ~pass:"spg" f);
  check_bool "pass name is part of the identity" true
    (F.stable_id ~pass:"spg" f <> F.stable_id ~pass:"bounds" f)

(* ------------------------------------------------------------------ *)
(* the exposure map on Check.Certificate *)

let test_certificate_exposure_queries () =
  let certs =
    Check.Certificate.of_findings
      ~exposures:
        [
          ("lib/x/leader.ml", [ ("disk-slow", "red"); ("net-slow", "green") ]);
          ("lib/x/client.ml", [ ("net-slow", "red") ]);
        ]
      ~files:[ "lib/x/leader.ml"; "lib/x/client.ml" ] []
  in
  Alcotest.(check string) "contention shares its slow sibling's key" "disk-slow"
    (Check.Certificate.fault_key Cluster.Fault.Disk_contention);
  Alcotest.(check string) "memory key" "memory"
    (Check.Certificate.fault_key Cluster.Fault.Mem_contention);
  check_bool "exposed by suffix, any color" true
    (Check.Certificate.exposed certs ~file:"x/leader.ml" ~kind:Cluster.Fault.Net_slow);
  check_bool "red_exposed wants red" false
    (Check.Certificate.red_exposed certs ~file:"x/leader.ml" ~kind:Cluster.Fault.Net_slow);
  check_bool "red disk exposure seen" true
    (Check.Certificate.red_exposed certs ~file:"lib/x/leader.ml"
       ~kind:Cluster.Fault.Disk_slow);
  check_bool "unexposed kind" false
    (Check.Certificate.exposed certs ~file:"lib/x/client.ml" ~kind:Cluster.Fault.Cpu_slow);
  check_int "three exposure entries" 3 (Check.Certificate.exposure_count certs)

(* ------------------------------------------------------------------ *)
(* the dynamic half: the alias blindspot reproduces the mismatch, and
   the gating slow-disk scenario stays clean apart from the non-gating
   staleness warning *)

let scenario name =
  match Check.Registry.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

let budget ~schedules = { E.default_budget with E.max_schedules = schedules }

let spg_mismatches fs =
  List.filter
    (fun f ->
      f.F.rule = F.certificate_mismatch && contains ~needle:"slowness-propagation" f.F.message)
    fs

let test_blindspot_mismatch () =
  (* statically the fixture file is covered with no net-slow exposure;
     dynamically the escaped event is a red net edge — mismatch *)
  let certs = Check.Certificate.of_findings ~files:[ "lib/check/fixture_spg.ml" ] [] in
  let res =
    E.explore ~budget:(budget ~schedules:50) ~certs (scenario "spg-alias-blindspot")
  in
  let mm = spg_mismatches res.E.findings in
  check_int "one spg mismatch" 1 (List.length mm);
  check_bool "error severity" true (List.for_all (fun f -> f.F.severity = F.Error) mm);
  check_bool "names the missing exposure" true
    (message_contains mm "no net-slow exposure")

let test_blindspot_needs_injected_fault () =
  (* without a declared fault the explorer collects no edges, so the
     same certificate produces no spg mismatch *)
  let certs = Check.Certificate.of_findings ~files:[ "lib/check/fixture_spg.ml" ] [] in
  let sc = { (scenario "spg-alias-blindspot") with Check.Scenario.fault = None } in
  let res = E.explore ~budget:(budget ~schedules:50) ~certs sc in
  check_int "no spg mismatch without a fault" 0 (List.length (spg_mismatches res.E.findings))

let test_blindspot_exposure_silences_mismatch () =
  (* hand the certificate the exposure the static pass missed and the
     observed edge lands inside the blast radius again *)
  let certs =
    Check.Certificate.of_findings
      ~exposures:[ ("lib/check/fixture_spg.ml", [ ("net-slow", "red") ]) ]
      ~files:[ "lib/check/fixture_spg.ml" ] []
  in
  let res =
    E.explore ~budget:(budget ~schedules:50) ~certs (scenario "spg-alias-blindspot")
  in
  check_int "no spg mismatch once exposed" 0 (List.length (spg_mismatches res.E.findings))

let test_staleness_warning_nongating () =
  (* a static red exposure the runs never observe red: reported as a
     warning, which does not gate under the checker's discipline *)
  let certs =
    Check.Certificate.of_findings
      ~exposures:[ ("lib/check/fixture_spg.ml", [ ("net-slow", "green"); ("net-slow", "red") ]) ]
      ~files:[ "lib/check/fixture_spg.ml" ] []
  in
  (* the fixture's observed edge IS red, so force the never-observed
     case by pointing the scenario at a module with no waits at all *)
  let sc =
    {
      (scenario "spg-alias-blindspot") with
      Check.Scenario.allow = Check.Scenario.allow_all;
    }
  in
  let res = E.explore ~budget:(budget ~schedules:50) ~certs sc in
  let stale = List.filter (fun f -> f.F.rule = F.spg_stale_edge) res.E.findings in
  check_int "one staleness warning" 1 (List.length stale);
  check_bool "warning severity" true
    (List.for_all (fun f -> f.F.severity = F.Warning) stale);
  check_rules "warnings do not gate" []
    (rules (F.gating ~strict:false res.E.findings))

let test_jobs_agree_on_spg_findings () =
  (* the per-(file, color) edge accumulator merges commutatively, so
     parallel and serial exploration report identical findings *)
  let certs = Check.Certificate.of_findings ~files:[ "lib/check/fixture_spg.ml" ] [] in
  let run jobs =
    (E.explore ~budget:(budget ~schedules:50) ~certs ~jobs (scenario "spg-alias-blindspot"))
      .E.findings
  in
  Alcotest.(check (list string)) "jobs-independent"
    (List.map F.to_string (run 1))
    (List.map F.to_string (run 2))

let suite =
  [
    ( "spg.fixtures",
      [
        Alcotest.test_case "disk bare wait flagged" `Quick test_disk_bare_wait_flagged;
        Alcotest.test_case "disk deadline certified" `Quick test_disk_deadline_certified;
        Alcotest.test_case "net single peer flagged" `Quick test_net_single_peer_flagged;
        Alcotest.test_case "net broadcast quorum green" `Quick
          test_net_broadcast_quorum_green;
        Alcotest.test_case "tainted arity flagged" `Quick test_tainted_arity_flagged;
        Alcotest.test_case "untainted arity clean" `Quick test_untainted_arity_clean;
        Alcotest.test_case "uncovered and_ flagged" `Quick test_and_uncovered_flagged;
        Alcotest.test_case "or_ timer escape clean" `Quick test_or_timer_escape_clean;
      ] );
    ( "spg.tree",
      [
        Alcotest.test_case "self-lint clean" `Quick test_tree_self_lint_clean;
        Alcotest.test_case "server.ml red disk exposure" `Quick
          test_tree_server_red_disk_exposure;
        Alcotest.test_case "blindspot file unexposed" `Quick
          test_tree_blindspot_file_unexposed;
        Alcotest.test_case "certificate volume" `Quick test_tree_certificate_volume;
        Alcotest.test_case "deterministic output" `Quick test_tree_deterministic_output;
        Alcotest.test_case "stable finding ids" `Quick test_stable_ids;
      ] );
    ( "spg.cross-check",
      [
        Alcotest.test_case "exposure queries" `Quick test_certificate_exposure_queries;
        Alcotest.test_case "blindspot mismatch" `Quick test_blindspot_mismatch;
        Alcotest.test_case "no fault, no mismatch" `Quick
          test_blindspot_needs_injected_fault;
        Alcotest.test_case "exposure silences mismatch" `Quick
          test_blindspot_exposure_silences_mismatch;
        Alcotest.test_case "staleness warning non-gating" `Quick
          test_staleness_warning_nongating;
        Alcotest.test_case "jobs-independent findings" `Quick
          test_jobs_agree_on_spg_findings;
      ] );
  ]
