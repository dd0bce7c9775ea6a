(* Tests for the depfast-domains pass: each verdict class has a clean
   fixture and a broken (or pragma'd) twin, and regressions pin the real
   tree's inventory. *)

module F = Analysis.Finding
module D = Analysis.Domains
module G = Analysis.Growth

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

let cert_for certs ~site = List.find_opt (fun c -> c.G.c_site = site) certs

let has_class c cls =
  String.length c.G.c_evidence >= String.length cls
  && String.sub c.G.c_evidence 0 (String.length cls) = cls

let require_cert certs ~site ~cls ~verdict =
  match cert_for certs ~site with
  | Some c ->
    check_bool (Printf.sprintf "%s verdict" site) true (c.G.c_verdict = verdict);
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
  Alcotest.(check string) "inventoried as a hashtbl" "hashtbl" c.G.c_kind

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

(* a record literal is a cell by its own type, not by a label name it
   shares with another type's mutable field *)
let test_literal_of_immutable_type () =
  let fs, certs, _ = analyze "dom_literal_ok.ml" in
  check_rules "no shared state" [] (rules fs);
  check_bool "the literal of the immutable type is no cell" true
    (cert_for certs ~site:"Dom_literal_ok.defaults" = None)

let test_literal_of_mutable_type () =
  let fs, certs, _ = analyze "dom_literal_bad.ml" in
  check_rules "the written literal is shared state" [ F.unsafe_shared_state ] (rules fs);
  ignore
    (require_cert certs ~site:"Dom_literal_bad.shared" ~cls:D.class_unsafe ~verdict:G.Flagged)

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
  check_int "certificate sited at the cell definition" 5 c.G.c_line

let test_unsafe_pragma_allowed () =
  let fs, _, _ = analyze "dom_unsafe_allowed.ml" in
  check_bool "finding still reported" true (fs <> []);
  check_bool "but carried as allowed" true (List.for_all (fun f -> f.F.allowed) fs);
  check_rules "nothing gates" [] (rules (F.gating ~strict:true fs))

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
  | Some (fs, certs, ()) ->
    (* one certificate per top-level mutable cell and per mutable field
       name declared in lib/ (same-named fields share one cell) *)
    check_int "every top-level mutable cell carries a certificate" 199
      (List.length certs);
    let flagged = List.filter (fun c -> c.G.c_verdict = G.Flagged) certs in
    Alcotest.(check (list string)) "exactly the two seeded fixture cells unsafe"
      [ "Fixture_spg.mailbox"; "Fixtures.backlog" ]
      (List.sort compare (List.map (fun c -> c.G.c_site) flagged));
    check_bool "both acknowledged by pragma" true (List.for_all (fun f -> f.F.allowed) fs);
    check_rules "zero unallowed unsafe-shared verdicts" []
      (rules (F.gating ~strict:true fs))

let test_tree_key_verdicts () =
  match tree () with
  | None -> ()
  | Some (_, certs, _) ->
    let c =
      require_cert certs ~site:"Event.next_id" ~cls:D.class_guarded ~verdict:G.Bounded
    in
    Alcotest.(check string) "next_id is the Atomic fix" "atomic" c.G.c_kind;
    ignore
      (require_cert certs ~site:"Event.dummy" ~cls:D.class_immutable ~verdict:G.Bounded)

let suite =
  [
    ( "domains.verdicts",
      [
        Alcotest.test_case "read-only table immutable" `Quick test_immutable_certified;
        Alcotest.test_case "literal of an immutable type is no cell" `Quick
          test_literal_of_immutable_type;
        Alcotest.test_case "literal of a mutable type is a cell" `Quick
          test_literal_of_mutable_type;
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
      ] );
    ( "domains.tree",
      [
        Alcotest.test_case "inventory counts pinned" `Quick test_tree_inventory_pinned;
        Alcotest.test_case "key cell verdicts" `Quick test_tree_key_verdicts;
      ] );
  ]
