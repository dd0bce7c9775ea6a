(* depfast-check: systematic schedule-space exploration with fail-slow
   sanitizer invariants and static-certificate cross-checking.

   Runs each named scenario (default: every gating scenario in the
   registry) through the explorer: bounded DFS over chooser-decision
   prefixes with persistent-set (DPOR-lite) pruning, a sanitizer auditing
   every terminal state (lost wakeups, double wakes, unsatisfiable and
   abandoned waits, quorum counter consistency, per-link FIFO), Spg.audit
   over each terminal trace, and — unless --no-certs — a cross-check of
   dynamic violations against the static wait-structure certificates
   computed over the library sources. --no-certs only turns those
   cross-checks off: certificates never change which schedules run, so
   schedule and prune counts are the same either way.

   Exit discipline matches depfast_lint: 0 when no finding gates, 1 when
   findings gate, 2 on usage errors. *)

let usage =
  "usage: depfast_check [--list] [--all] [--format text|json] [--no-certs] \
   [--certs-root dir]* [--max-schedules n] [--max-steps n] [--max-depth n] \
   [--jobs n] [--quiet] [scenario ...]"

type opts = {
  mutable format : [ `Text | `Json ];
  mutable quiet : bool;
  mutable list_only : bool;
  mutable run_all : bool;
  mutable no_certs : bool;
  mutable certs_roots : string list;
  mutable max_schedules : int option;
  mutable max_steps : int option;
  mutable max_depth : int option;
  mutable jobs : int;
  mutable names : string list;
}

let parse_args () =
  let o =
    {
      format = `Text;
      quiet = false;
      list_only = false;
      run_all = false;
      no_certs = false;
      certs_roots = [];
      max_schedules = None;
      max_steps = None;
      max_depth = None;
      jobs = 1;
      names = [];
    }
  in
  let expect = ref None in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ ->
      Printf.eprintf "depfast_check: %s needs a positive integer, got %S\n" name v;
      exit 2
  in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match !expect with
        | Some key ->
          expect := None;
          (match key with
          | `Format -> (
            match arg with
            | "text" -> o.format <- `Text
            | "json" -> o.format <- `Json
            | other ->
              Printf.eprintf "depfast_check: unknown format %S (want text or json)\n"
                other;
              exit 2)
          | `Certs_root -> o.certs_roots <- o.certs_roots @ [ arg ]
          | `Max_schedules -> o.max_schedules <- Some (int_arg "--max-schedules" arg)
          | `Max_steps -> o.max_steps <- Some (int_arg "--max-steps" arg)
          | `Max_depth -> o.max_depth <- Some (int_arg "--max-depth" arg)
          | `Jobs -> (
            (* 0 means auto: one worker per available core (capped) *)
            match int_of_string_opt arg with
            | Some 0 -> o.jobs <- Sim.Dpool.recommended_jobs ()
            | Some n when n > 0 -> o.jobs <- n
            | _ ->
              Printf.eprintf
                "depfast_check: --jobs needs a non-negative integer, got %S\n" arg;
              exit 2))
        | None -> (
          match arg with
          | "--list" -> o.list_only <- true
          | "--all" -> o.run_all <- true
          | "--quiet" | "-q" -> o.quiet <- true
          | "--no-certs" -> o.no_certs <- true
          | "--format" -> expect := Some `Format
          | "--certs-root" -> expect := Some `Certs_root
          | "--max-schedules" -> expect := Some `Max_schedules
          | "--max-steps" -> expect := Some `Max_steps
          | "--max-depth" -> expect := Some `Max_depth
          | "--jobs" | "-j" -> expect := Some `Jobs
          | "--help" | "-h" ->
            print_endline usage;
            exit 0
          | p when String.length p > 0 && p.[0] = '-' ->
            Printf.eprintf "depfast_check: unknown option %s\n%s\n" p usage;
            exit 2
          | name -> o.names <- o.names @ [ name ]))
    Sys.argv;
  (match !expect with
  | Some _ ->
    Printf.eprintf "depfast_check: missing argument\n%s\n" usage;
    exit 2
  | None -> ());
  o

let budget_for o (sc : Check.Scenario.t) =
  let d = Check.Explore.default_budget in
  {
    Check.Explore.max_schedules =
      (match o.max_schedules with Some n -> n | None -> sc.Check.Scenario.default_schedules);
    max_steps = (match o.max_steps with Some n -> n | None -> d.Check.Explore.max_steps);
    max_depth = (match o.max_depth with Some n -> n | None -> d.Check.Explore.max_depth);
  }

let default_certs_roots = [ "lib" ]

let () =
  let o = parse_args () in
  if o.list_only then begin
    List.iter
      (fun (sc : Check.Scenario.t) ->
        Printf.printf "%-22s %s%s\n" sc.Check.Scenario.name sc.Check.Scenario.descr
          (if sc.Check.Scenario.gating then "" else "  [not gating]"))
      Check.Registry.all;
    exit 0
  end;
  let scenarios =
    match (o.names, o.run_all) with
    | [], false -> Check.Registry.gating_scenarios
    | [], true -> Check.Registry.all
    | names, _ ->
      List.map
        (fun n ->
          match Check.Registry.find n with
          | Some sc -> sc
          | None ->
            Printf.eprintf "depfast_check: unknown scenario %S (try --list)\n" n;
            exit 2)
        names
  in
  let certs =
    if o.no_certs then None
    else begin
      let roots =
        match o.certs_roots with [] -> default_certs_roots | roots -> roots
      in
      let missing = List.filter (fun p -> not (Sys.file_exists p)) roots in
      if missing <> [] then begin
        Printf.eprintf "depfast_check: no such certificate root: %s\n"
          (String.concat ", " missing);
        exit 2
      end;
      Some (Check.Certificate.build ~roots ())
    end
  in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun sc ->
        Check.Explore.explore ~budget:(budget_for o sc) ?certs ~jobs:o.jobs sc)
      scenarios
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let all_findings = List.concat_map (fun r -> r.Check.Explore.findings) results in
  let gating = Analysis.Finding.gating ~strict:false all_findings in
  let total_schedules =
    List.fold_left (fun a r -> a + r.Check.Explore.schedules) 0 results
  in
  let total_pruned = List.fold_left (fun a r -> a + r.Check.Explore.pruned) 0 results in
  (match o.format with
  | `Text ->
    List.iter
      (fun (r : Check.Explore.result) ->
        Printf.printf "%-22s %6d schedules, %6d pruned, deepest %4d%s%s\n"
          r.Check.Explore.scenario r.Check.Explore.schedules r.Check.Explore.pruned
          r.Check.Explore.deepest
          (if r.Check.Explore.complete then "" else "  [budget hit]")
          (match List.length r.Check.Explore.findings with
          | 0 -> ""
          | n -> Printf.sprintf "  %d finding(s)" n);
        if not o.quiet then
          List.iter
            (fun f -> Printf.printf "  %s\n" (Analysis.Finding.to_string f))
            r.Check.Explore.findings)
      results;
    Printf.printf
      "depfast-check: %d scenario(s), %d schedules explored, %d pruned, %d finding(s), \
       %d gating, %.0f ms, %d job(s)%s\n"
      (List.length results) total_schedules total_pruned (List.length all_findings)
      (List.length gating) wall_ms o.jobs
      (match certs with
      | Some c ->
        Printf.sprintf " [certs: %d files, %d flagged, %d spg exposures]"
          (Check.Certificate.covered_count c)
          (List.length (Check.Certificate.flagged_files c))
          (Check.Certificate.exposure_count c)
      | None -> "")
  | `Json ->
    Printf.printf "{ \"scenarios\": %d, \"schedules\": %d, \"pruned\": %d, \
                   \"findings\": %d, \"gating\": %d, \"wall_ms\": %.1f, \"results\": [\n"
      (List.length results) total_schedules total_pruned (List.length all_findings)
      (List.length gating) wall_ms;
    let last = List.length results - 1 in
    List.iteri
      (fun i (r : Check.Explore.result) ->
        Printf.printf
          "  { \"scenario\": \"%s\", \"schedules\": %d, \"pruned\": %d, \
           \"truncated_runs\": %d, \"nonquiescent_runs\": %d, \"deepest\": %d, \
           \"complete\": %b, \"findings\": [%s] }%s\n"
          (Analysis.Finding.json_escape r.Check.Explore.scenario)
          r.Check.Explore.schedules r.Check.Explore.pruned r.Check.Explore.truncated_runs
          r.Check.Explore.nonquiescent_runs r.Check.Explore.deepest
          r.Check.Explore.complete
          (String.concat ", "
             (List.map Analysis.Finding.to_json r.Check.Explore.findings))
          (if i < last then "," else ""))
      results;
    print_string "] }\n");
  exit (if gating = [] then 0 else 1)
