(* depfast-lint: static fail-slow analysis over OCaml sources.

   Loads the given paths (default: lib bin examples bench) as one
   project model and runs every pass over it: pragma hygiene
   ([unknown-pragma]), the interprocedural pass (locks held across
   suspensions, lock-order cycles), the boundedness & timeout-coverage
   pass (unbounded-growth, missing-deadline, unbounded-retry), the
   domain-safety pass (the mutable-state inventory and
   [unsafe-shared-state]), and the slowness-propagation pass (static
   exposure of every wait site to fail-slow resources: [red-exposure];
   quorum arity: [quorum-arity-mismatch]), with the certificates of the
   last three.

   Exit discipline: 0 when nothing gates, 1 when findings gate, 2 on
   usage errors. By default only unallowed [error]-severity findings
   gate; [--strict] escalates every unallowed finding (warnings and
   infos included). An allow pragma comment naming the rule id exempts
   a finding either way. With [--format json] the gating findings are
   also named on stderr. *)

let usage =
  "usage: depfast_lint [--quiet] [--strict] [--format text|json] [--rules] [path ...]"

let () =
  let quiet = ref false in
  let strict = ref false in
  let format = ref `Text in
  let paths = ref [] in
  let show_rules = ref false in
  let expect_format = ref false in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if !expect_format then begin
          expect_format := false;
          match arg with
          | "text" -> format := `Text
          | "json" -> format := `Json
          | other ->
            Printf.eprintf "depfast_lint: unknown format %S (want text or json)\n" other;
            exit 2
        end
        else
          match arg with
          | "--quiet" | "-q" -> quiet := true
          | "--strict" -> strict := true
          | "--format" -> expect_format := true
          | "--rules" -> show_rules := true
          | "--help" | "-h" ->
            print_endline usage;
            exit 0
          | p when String.length p > 0 && p.[0] = '-' ->
            Printf.eprintf "depfast_lint: unknown option %s\n%s\n" p usage;
            exit 2
          | p -> paths := p :: !paths)
    Sys.argv;
  if !expect_format then begin
    Printf.eprintf "depfast_lint: --format needs an argument (text or json)\n";
    exit 2
  end;
  if !show_rules then begin
    List.iter
      (fun (id, desc) -> Printf.printf "%-24s %s\n" id desc)
      Analysis.Finding.rules;
    exit 0
  end;
  let roots = match List.rev !paths with [] -> [ "lib"; "bin"; "examples"; "bench" ] | ps -> ps in
  let missing = List.filter (fun p -> not (Sys.file_exists p)) roots in
  if missing <> [] then begin
    Printf.eprintf "depfast_lint: no such path: %s\n" (String.concat ", " missing);
    exit 2
  end;
  let files = Analysis.Source_lint.ml_files roots in
  let r = Analysis.Passes.run (Analysis.Growth.load_files files) in
  let tagged = r.Analysis.Passes.tagged in
  let bcerts = r.Analysis.Passes.bounds and dcerts = r.Analysis.Passes.domains in
  let scerts = r.Analysis.Passes.spg in
  let certs = bcerts @ dcerts @ scerts in
  let findings = Analysis.Passes.findings r in
  let gating = Analysis.Finding.gating ~strict:!strict findings in
  let unallowed = Analysis.Finding.unallowed findings in
  let bounded, flagged =
    List.partition (fun c -> c.Analysis.Growth.c_verdict = Analysis.Growth.Bounded) bcerts
  in
  let unsafe_cells =
    List.filter (fun c -> c.Analysis.Growth.c_verdict = Analysis.Growth.Flagged) dcerts
  in
  (match !format with
  | `Text ->
    List.iter
      (fun (f : Analysis.Finding.t) ->
        if not (!quiet && f.Analysis.Finding.allowed) then
          print_endline (Analysis.Finding.to_string f))
      findings;
    let waits, props = List.partition (fun c -> c.Analysis.Growth.c_kind = "wait") scerts in
    let red = List.filter (fun c -> c.Analysis.Growth.c_verdict = Analysis.Growth.Flagged) waits in
    Printf.printf
      "depfast-lint: %d file(s), %d finding(s), %d unallowed, %d gating [bounds: %d site(s) \
       certified, %d flagged] [domains: %d cell(s), %d unsafe] [spg: %d wait site(s), %d \
       propagation edge(s), %d red-uncovered]\n"
      (List.length files) (List.length findings) (List.length unallowed) (List.length gating)
      (List.length bounded) (List.length flagged) (List.length dcerts)
      (List.length unsafe_cells) (List.length waits) (List.length props) (List.length red)
  | `Json ->
    (* one JSON document: summary + findings array, one finding per line *)
    Printf.printf
      "{ \"files\": %d, \"findings\": %d, \"unallowed\": %d, \"gating\": %d, \"strict\": %b, \
       \"results\": [\n"
      (List.length files) (List.length findings) (List.length unallowed)
      (List.length gating) !strict;
    let shown =
      if !quiet then
        List.filter (fun ((_, f) : _ * Analysis.Finding.t) -> not f.Analysis.Finding.allowed) tagged
      else tagged
    in
    List.iteri
      (fun i (pass, f) ->
        let json = Analysis.Finding.to_json f in
        (* graft the id and pass into the object: {"id": ..., "pass": ..., <fields>} *)
        let body = String.sub json 1 (String.length json - 1) in
        Printf.printf "  {\"id\": \"%s\", \"pass\": \"%s\", %s%s\n"
          (Analysis.Finding.stable_id ~pass f)
          pass body
          (if i < List.length shown - 1 then "," else ""))
      shown;
    Printf.printf "], \"certificates\": [\n";
    List.iteri
      (fun i c ->
        Printf.printf "  %s%s\n" (Analysis.Growth.cert_to_json c)
          (if i < List.length certs - 1 then "," else ""))
      certs;
    print_string "] }\n";
    (* the report goes to a file under the build, so name what gates
       where the build shows it *)
    List.iter (fun f -> prerr_endline (Analysis.Finding.to_string f)) gating);
  exit (if gating = [] then 0 else 1)
