open Sim

(* Stateless schedule-space exploration by re-execution: given a fixed
   seed, a run is fully determined by the sequence of chooser decisions,
   so a schedule IS its decision prefix. The explorer does a DFS over
   prefixes: each run follows its prefix and then defaults (index 0) to a
   terminal state, recording the enabled set at every choice point past
   the prefix; backtracking re-runs with the prefix extended by an
   alternative decision. Alternatives are filtered by a persistent-set
   (DPOR-lite) heuristic: the conflict closure of the taken transition,
   where two transitions conflict iff their tag footprints land on the
   same node (unknown provenance conflicts with everything). This is
   exact for share-nothing message-passing scenarios — cross-node effects
   travel through Link-tagged deliveries — and scenarios with genuinely
   shared state put every coroutine on one node, disabling pruning.
   Certificates only cross-check a run's results; they never change which
   schedules run. *)

exception Out_of_steps

type budget = {
  max_schedules : int;  (* explored runs *)
  max_steps : int;  (* choice points per run before truncation *)
  max_depth : int;  (* no new backtrack points past this choice index *)
}

let default_budget = { max_schedules = 2000; max_steps = 4000; max_depth = 200 }

type run = {
  r_steps : Engine.tag array array;
      (* enabled sets at choice points past the prefix (decision 0 taken) *)
  r_nsteps : int;  (* choice points seen, including prefix replay *)
  r_truncated : bool;
  r_quiescent : bool;
  r_violations : Sanitizer.violation list;
  r_overflows : Sanitizer.overflow list;  (* gauges past their declared cap *)
  r_spg_edges : (string * Depfast.Spg.edge) list;
      (* observed SPG edges attributed (via provenance) to the source
         file whose coroutine waited; only collected when the scenario
         injects a fault, for the static-exposure cross-check *)
}

let footprint = function
  | Engine.Anon -> None
  | Engine.On_node n -> Some n
  | Engine.Link (_, d) -> Some d

let conflicts a b =
  match (footprint a, footprint b) with
  | None, _ | _, None -> true
  | Some x, Some y -> x = y

(* conflict closure of [chosen] within [tags]: true for members of the
   persistent set; everything outside it is provably independent of the
   chosen transition and safe to skip *)
let persistent_set tags chosen =
  let n = Array.length tags in
  let inset = Array.make n false in
  inset.(chosen) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if not inset.(i) then
        for j = 0 to n - 1 do
          if inset.(j) && conflicts tags.(i) tags.(j) then begin
            inset.(i) <- true;
            changed := true
          end
        done
    done
  done;
  inset

(* The run state an exploration driver reuses for every schedule: one
   engine, scheduler, sanitizer and wait trace, all reset when a run
   starts (even if the run before raised), and the world of the scenario
   it last ran, which that scenario's run function resets in place, so a
   run allocates what its scenario's run allocates and no run's events
   outlive the next run's start. The trace is cleared again once the run
   is judged, so its events do not wait that long. The chooser is
   installed once and reads the run's cursor from here. *)
type state = {
  engine : Engine.t;
  sched : Depfast.Sched.t;
  san : Sanitizer.t;
  trace : Depfast.Trace.t;
  mutable st_prefix : int array;  (* the decisions this run replays *)
  mutable st_max_steps : int;
  mutable st_nsteps : int;  (* choice points seen this run *)
  mutable st_steps : Engine.tag array list;  (* enabled sets past the prefix, newest first *)
  mutable st_world : (Scenario.t * (unit -> Scenario.instance)) option;
      (* the scenario whose world this state holds, and its run function *)
}

let fresh_state () =
  let engine = Engine.create ~seed:1L () in
  let trace = Depfast.Trace.create ~enabled:true () in
  let sched = Depfast.Sched.create ~trace engine in
  let san = Sanitizer.create sched in
  let st =
    { engine; sched; san; trace; st_prefix = [||]; st_max_steps = 0; st_nsteps = 0;
      st_steps = []; st_world = None }
  in
  Engine.set_chooser engine (fun tags n ->
      (* queue-depth watermarks: every choice point is a reachable
         state, so the gauges see the containers mid-interleaving, not
         just at the end of the run *)
      Sanitizer.sample_gauges san;
      let i = st.st_nsteps in
      if i >= st.st_max_steps then raise Out_of_steps;
      st.st_nsteps <- i + 1;
      if i < Array.length st.st_prefix then begin
        let c = st.st_prefix.(i) in
        if c < n then c else 0
      end
      else begin
        (* [tags] is the engine's live buffer: keep a copy *)
        st.st_steps <- Array.sub tags 0 n :: st.st_steps;
        0
      end);
  st

(* [scenario]'s run function, building its world on this state first
   unless the state holds it already; the world of another scenario is
   let go before *)
let world st (scenario : Scenario.t) =
  match st.st_world with
  | Some (sc, start) when sc == scenario -> start
  | Some _ | None ->
    st.st_world <- None;
    let start = scenario.Scenario.make st.san st.sched in
    st.st_world <- Some (scenario, start);
    start

(* the enabled sets recorded past the prefix, oldest first. [Array.make]
   with the static [[||]], then filled: [Array.of_list] would make the
   array with its first element, a young array, and past 256 words that
   forces a minor collection (DESIGN §10) *)
let steps_array steps =
  let a = Array.make (List.length steps) [||] in
  let rec fill i = function
    | [] -> ()
    | tags :: older ->
      a.(i) <- tags;
      fill (i - 1) older
  in
  fill (Array.length a - 1) steps;
  a

let run_one ?state:(st = fresh_state ()) (scenario : Scenario.t) ~prefix ~(budget : budget) =
  let san = st.san and trace = st.trace in
  (* built before the resets: a world re-splits its streams from the
     freshly reseeded engine when its run starts *)
  let start = world st scenario in
  Engine.reset st.engine;
  Depfast.Sched.reset st.sched;
  Sanitizer.reset san;
  Depfast.Trace.clear trace;
  st.st_prefix <- prefix;
  st.st_max_steps <- budget.max_steps;
  st.st_nsteps <- 0;
  st.st_steps <- [];
  let truncated = ref false in
  let inst = start () in
  (try Depfast.Sched.run ?until:inst.Scenario.until st.sched with
  | Out_of_steps -> truncated := true
  | e ->
    Sanitizer.report san ~rule:Analysis.Finding.invariant_violation
      ("uncaught exception: " ^ Printexc.to_string e));
  let quiescent = (not !truncated) && Engine.pending st.engine = 0 in
  Sanitizer.sample_gauges san;
  if quiescent then Sanitizer.check_quiescent san else Sanitizer.check_live san;
  List.iter
    (fun msg -> Sanitizer.report san ~rule:Analysis.Finding.invariant_violation msg)
    (inst.Scenario.check ());
  List.iter
    (fun (v : Depfast.Spg.violation) ->
      let w = v.Depfast.Spg.v_wait in
      Sanitizer.report san ~rule:Analysis.Finding.dynamic_red_wait
        ~coroutine:w.Depfast.Trace.coroutine ~node:w.Depfast.Trace.node
        ~event_id:(Depfast.Trace.event_id w)
        ~event_label:(Depfast.Trace.event_label w)
        (Printf.sprintf "wait stallable by node %d alone" v.Depfast.Spg.v_peer))
    (Depfast.Spg.audit ~allow:scenario.Scenario.allow trace);
  let spg_edges =
    match scenario.Scenario.fault with
    | None -> []
    | Some _ ->
      List.filter_map
        (fun (coro, e) ->
          match scenario.Scenario.provenance coro with
          | Some file -> Some (file, e)
          | None -> None)
        (Depfast.Spg.waiter_edges ~allow:scenario.Scenario.allow trace)
  in
  Depfast.Trace.clear trace;
  {
    r_steps = steps_array st.st_steps;
    r_nsteps = st.st_nsteps;
    r_truncated = !truncated;
    r_quiescent = quiescent;
    r_violations = Sanitizer.violations san;
    r_overflows = Sanitizer.gauge_overflows san;
    r_spg_edges = spg_edges;
  }

(* Canonical prefix order: shorter first, then lexicographic. Schedule
   "first seen" attributions rank by this order rather than exploration
   order, so serial and parallel runs — which visit the frontier in
   different orders — report byte-identical findings. *)
let prefix_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else
        let c = compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

(* a deduplicated violation site across all explored schedules *)
type site = {
  s_rule : string;
  s_coroutine : string;
  s_node : int;
  s_event_id : int;
  s_event_label : string;
  s_message : string;
  mutable s_runs : int;  (* schedules exhibiting it *)
  mutable s_min_prefix : int array;
      (* canonically least explored prefix exhibiting it; ranked against
         all explored prefixes at report time *)
}

type result = {
  scenario : string;
  schedules : int;  (* schedules actually executed *)
  pruned : int;  (* enabled alternatives skipped as independent (DPOR) *)
  truncated_runs : int;
  nonquiescent_runs : int;
  deepest : int;  (* most choice points seen in one run *)
  complete : bool;  (* frontier exhausted within the schedule budget *)
  findings : Analysis.Finding.t list;  (* deduplicated, sorted *)
}

let finding_of_site scenario ~first s =
  (* the event id is run-local (a process-wide counter, new events per run):
     zeroed so reports are stable across runs and invocations *)
  let loc = Analysis.Finding.Node { event_id = 0; event_label = s.s_event_label } in
  let context =
    (if s.s_coroutine = "" then ""
     else Printf.sprintf " [coroutine %s, node %d]" s.s_coroutine s.s_node)
    ^ Printf.sprintf " (%d schedule%s, first #%d)" s.s_runs
        (if s.s_runs = 1 then "" else "s")
        first
  in
  Analysis.Finding.v ~rule:s.s_rule ~severity:Analysis.Finding.Error ~loc
    (Printf.sprintf "%s: %s%s" scenario s.s_message context)

(* ---- exploration core, shared by the serial and parallel paths ------- *)

(* Per-worker accumulator. Every field merges commutatively (sums, max,
   keyed unions with canonical tie-breaks), so folding worker results in
   any order — or running everything in one worker — yields the same
   report. *)
type acc = {
  mutable a_schedules : int;
  mutable a_pruned : int;
  mutable a_truncated : int;
  mutable a_nonquiescent : int;
  mutable a_deepest : int;
  mutable a_prefixes : int array list;  (* every prefix this worker ran *)
  a_sites : (string * string * string * string, site) Hashtbl.t;
  a_overflows : (string, Sanitizer.overflow) Hashtbl.t;
  a_spg : (string * Depfast.Spg.color, int) Hashtbl.t;
      (* cumulative observed SPG edges over all schedules, keyed by
         (waiter's source file, edge color): a keyed counted union, so
         merging worker accumulators commutes *)
}

let fresh_acc () =
  {
    a_schedules = 0;
    a_pruned = 0;
    a_truncated = 0;
    a_nonquiescent = 0;
    a_deepest = 0;
    a_prefixes = [];
    a_sites = Hashtbl.create 16;
    a_overflows = Hashtbl.create 4;
    a_spg = Hashtbl.create 8;
  }

(* deterministic "worst overflow" order: higher watermark wins, ties go
   to the least record — never to whichever run happened to land first *)
let overflow_beats (o : Sanitizer.overflow) (p : Sanitizer.overflow) =
  o.Sanitizer.o_watermark > p.Sanitizer.o_watermark
  || (o.Sanitizer.o_watermark = p.Sanitizer.o_watermark && compare o p < 0)

(* Execute one frontier item against [acc] and return the child items it
   backtracks to. The children depend only on the item (runs re-execute
   deterministically), so the frontier reached from the root is one fixed
   tree no matter which worker visits which node in what order. *)
let process_item (scenario : Scenario.t) ~budget ~state acc prefix =
  let run = run_one ~state scenario ~prefix ~budget in
  acc.a_schedules <- acc.a_schedules + 1;
  acc.a_prefixes <- prefix :: acc.a_prefixes;
  if run.r_truncated then acc.a_truncated <- acc.a_truncated + 1;
  if not run.r_quiescent then acc.a_nonquiescent <- acc.a_nonquiescent + 1;
  if run.r_nsteps > acc.a_deepest then acc.a_deepest <- run.r_nsteps;
  List.iter
    (fun (v : Sanitizer.violation) ->
      (* event *ids* are a process-global counter, different in every
         re-executed run — sites are identified by label instead *)
      let key = (v.Sanitizer.rule, v.Sanitizer.coroutine, v.Sanitizer.event_label,
                 v.Sanitizer.message)
      in
      match Hashtbl.find_opt acc.a_sites key with
      | Some s ->
        s.s_runs <- s.s_runs + 1;
        if prefix_compare prefix s.s_min_prefix < 0 then s.s_min_prefix <- prefix
      | None ->
        Hashtbl.replace acc.a_sites key
          {
            s_rule = v.Sanitizer.rule;
            s_coroutine = v.Sanitizer.coroutine;
            s_node = v.Sanitizer.node;
            s_event_id = v.Sanitizer.event_id;
            s_event_label = v.Sanitizer.event_label;
            s_message = v.Sanitizer.message;
            s_runs = 1;
            s_min_prefix = prefix;
          })
    run.r_violations;
  List.iter
    (fun (o : Sanitizer.overflow) ->
      match Hashtbl.find_opt acc.a_overflows o.Sanitizer.o_label with
      | Some prev when not (overflow_beats o prev) -> ()
      | _ -> Hashtbl.replace acc.a_overflows o.Sanitizer.o_label o)
    run.r_overflows;
  List.iter
    (fun (file, (e : Depfast.Spg.edge)) ->
      let key = (file, e.Depfast.Spg.color) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc.a_spg key) in
      Hashtbl.replace acc.a_spg key (prev + e.Depfast.Spg.count))
    run.r_spg_edges;
  let plen = Array.length prefix in
  let pushes = ref [] in
  Array.iteri
    (fun j tags ->
      let abs = plen + j in
      let n = Array.length tags in
      if abs < budget.max_depth then begin
        let inset = persistent_set tags 0 in
        let psize = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inset in
        acc.a_pruned <- acc.a_pruned + (n - psize);
        for alt = n - 1 downto 1 do
          if inset.(alt) then begin
            (* this run chose 0 at steps plen..abs-1; deviate at abs *)
            let p' = Array.make (abs + 1) 0 in
            Array.blit prefix 0 p' 0 plen;
            p'.(abs) <- alt;
            pushes := p' :: !pushes
          end
        done
      end
      else acc.a_pruned <- acc.a_pruned + (n - 1))
    run.r_steps;
  !pushes

let merge_into dst src =
  dst.a_schedules <- dst.a_schedules + src.a_schedules;
  dst.a_pruned <- dst.a_pruned + src.a_pruned;
  dst.a_truncated <- dst.a_truncated + src.a_truncated;
  dst.a_nonquiescent <- dst.a_nonquiescent + src.a_nonquiescent;
  if src.a_deepest > dst.a_deepest then dst.a_deepest <- src.a_deepest;
  dst.a_prefixes <- List.rev_append src.a_prefixes dst.a_prefixes;
  Hashtbl.iter
    (fun key (s : site) ->
      match Hashtbl.find_opt dst.a_sites key with
      | Some d ->
        d.s_runs <- d.s_runs + s.s_runs;
        if prefix_compare s.s_min_prefix d.s_min_prefix < 0 then
          d.s_min_prefix <- s.s_min_prefix
      | None -> Hashtbl.replace dst.a_sites key s)
    src.a_sites;
  Hashtbl.iter
    (fun label o ->
      match Hashtbl.find_opt dst.a_overflows label with
      | Some prev when not (overflow_beats o prev) -> ()
      | _ -> Hashtbl.replace dst.a_overflows label o)
    src.a_overflows;
  Hashtbl.iter
    (fun key n ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt dst.a_spg key) in
      Hashtbl.replace dst.a_spg key (prev + n))
    src.a_spg

(* Build the report from a merged accumulator. Site "first" numbers are
   ranks in the canonical order over all explored prefixes; every list
   that reaches the findings is sorted, so the output is a pure function
   of the explored prefix SET — the property the parallel determinism
   tests pin. *)
let finalize (scenario : Scenario.t) ~certs ~complete acc =
  let ordered = List.sort prefix_compare acc.a_prefixes in
  let rank = Hashtbl.create (List.length ordered) in
  List.iteri (fun i p -> Hashtbl.replace rank p i) ordered;
  let first_of s =
    match Hashtbl.find_opt rank s.s_min_prefix with Some i -> i | None -> 0
  in
  let dynamic =
    Hashtbl.fold (fun _ s l -> s :: l) acc.a_sites []
    |> List.sort (fun a b ->
           let c = compare (first_of a) (first_of b) in
           if c <> 0 then c
           else
             compare
               (a.s_rule, a.s_coroutine, a.s_event_label, a.s_message)
               (b.s_rule, b.s_coroutine, b.s_event_label, b.s_message))
  in
  let mismatches =
    match certs with
    | None -> []
    | Some certs ->
      List.filter_map
        (fun s ->
          if s.s_coroutine = "" then None
          else
            match scenario.Scenario.provenance s.s_coroutine with
            | Some file when Certificate.clean certs file ->
              Some
                (Analysis.Finding.v ~rule:Analysis.Finding.certificate_mismatch
                   ~severity:Analysis.Finding.Error
                   ~loc:(Analysis.Finding.File { file; line = 0 })
                   (Printf.sprintf
                      "%s: dynamic %s in coroutine %s, but the static certificate \
                       holds %s clean"
                      scenario.Scenario.name s.s_rule s.s_coroutine file))
            | _ -> None)
        dynamic
  in
  (* the boundedness cross-check: a gauge past its cap over a container
     whose file the static growth analysis certified bounded means one
     side is wrong — the static evidence doesn't actually run on the
     producing path, or the runtime broke an assumption *)
  let gauge_mismatches =
    match certs with
    | None -> []
    | Some certs ->
      Hashtbl.fold (fun _ o acc -> o :: acc) acc.a_overflows []
      |> List.sort compare
      |> List.filter_map (fun (o : Sanitizer.overflow) ->
             if Certificate.bounded_clean certs o.Sanitizer.o_file then
               Some
                 (Analysis.Finding.v ~rule:Analysis.Finding.certificate_mismatch
                    ~severity:Analysis.Finding.Error
                    ~loc:
                      (Analysis.Finding.File { file = o.Sanitizer.o_file; line = 0 })
                    (Printf.sprintf
                       "%s: gauge %s reached depth %d past its declared cap %d, but \
                        the static boundedness certificate holds %s clean"
                       scenario.Scenario.name o.Sanitizer.o_label
                       o.Sanitizer.o_watermark o.Sanitizer.o_cap o.Sanitizer.o_file))
             else None)
  in
  (* the slowness-propagation cross-check: every observed SPG edge must
     land inside the static exposure set for the injected fault kind —
     an edge in a covered file with no such exposure means the static
     taint missed a flow (escaped alias, unscanned producer) and is a
     certificate-mismatch. The converse — a static red exposure for the
     kind never observed red across the explored schedules — is only a
     staleness warning: static edges over-approximate by design. *)
  let spg_mismatches, spg_stale =
    match (certs, scenario.Scenario.fault) with
    | Some certs, Some kind ->
      let observed = Hashtbl.fold (fun k n l -> (k, n) :: l) acc.a_spg [] in
      let observed_files =
        List.sort_uniq compare (List.map (fun ((f, _), _) -> f) observed)
      in
      let mismatches =
        List.filter_map
          (fun file ->
            if Certificate.covered certs file && not (Certificate.exposed certs ~file ~kind)
            then
              Some
                (Analysis.Finding.v ~rule:Analysis.Finding.certificate_mismatch
                   ~severity:Analysis.Finding.Error
                   ~loc:(Analysis.Finding.File { file; line = 0 })
                   (Printf.sprintf
                      "%s: observed a slowness-propagation edge from a wait in %s \
                       under an injected %s fault, but the static exposure map gives \
                       %s no %s exposure at all — the taint analysis missed a flow"
                      scenario.Scenario.name file
                      (Cluster.Fault.name kind)
                      file (Certificate.fault_key kind)))
            else None)
          observed_files
      in
      let observed_red f =
        List.exists (fun ((file, c), _) -> file = f && c = Depfast.Spg.Red) observed
      in
      let stale =
        List.filter_map
          (fun file ->
            if Certificate.red_exposed certs ~file ~kind && not (observed_red file) then
              Some
                (Analysis.Finding.v ~rule:Analysis.Finding.spg_stale_edge
                   ~severity:Analysis.Finding.Warning
                   ~loc:(Analysis.Finding.File { file; line = 0 })
                   (Printf.sprintf
                      "%s: %s carries a static red %s exposure, but no explored \
                       schedule observed a red propagation edge there — possibly a \
                       stale certificate or an unexercised path"
                      scenario.Scenario.name file (Certificate.fault_key kind)))
            else None)
          (List.sort_uniq compare scenario.Scenario.modules)
      in
      (mismatches, stale)
    | _ -> ([], [])
  in
  let findings =
    List.map (fun s -> finding_of_site scenario.Scenario.name ~first:(first_of s) s)
      dynamic
    @ mismatches @ gauge_mismatches @ spg_mismatches @ spg_stale
    |> List.sort_uniq (fun a b ->
           let c = Analysis.Finding.by_location a b in
           if c <> 0 then c else compare a b)
  in
  {
    scenario = scenario.Scenario.name;
    schedules = acc.a_schedules;
    pruned = acc.a_pruned;
    truncated_runs = acc.a_truncated;
    nonquiescent_runs = acc.a_nonquiescent;
    deepest = acc.a_deepest;
    complete;
    findings;
  }

(* ---- the two drivers ------------------------------------------------- *)

let explore_serial ~budget ~certs scenario =
  let acc = fresh_acc () in
  let state = fresh_state () in
  let stack = ref [ [||] ] in
  while !stack <> [] && acc.a_schedules < budget.max_schedules do
    match !stack with
    | [] -> ()
    | item :: rest ->
      stack := rest;
      stack := process_item scenario ~budget ~state acc item @ !stack
  done;
  finalize scenario ~certs ~complete:(!stack = [] && acc.a_truncated = 0) acc

(* Parallel driver: one Chase–Lev deque per worker domain holding
   frontier items; a worker pops its own bottom (depth-first locally,
   keeping frontiers small) and steals from others' tops when dry. A
   frontier item counts in [pending] from push to retirement; children
   are published before the parent retires, so [pending] reaching zero
   really is termination. The schedule budget is claimed through one
   atomic counter — exactly [max_schedules] claims execute; later claims
   drop their item (recorded, so [complete] stays honest). Idle workers
   sleep on a wakeup gate: producers bump it after pushing, the last
   retirement bumps it for termination, and on a box with fewer cores
   than workers sleeping beats burning a timeslice spinning. *)
let explore_parallel ~budget ~certs ~jobs scenario =
  let deques = Array.init jobs (fun _ -> Wsq.create ()) in
  Wsq.push deques.(0) [||];
  let pending = Atomic.make 1 in
  let claimed = Atomic.make 0 in
  let dropped = Atomic.make false in
  let gate = Dpool.Gate.create () in
  let worker w =
    let acc = fresh_acc () in
    let state = fresh_state () in
    let my = deques.(w) in
    let steal_any () =
      let rec scan tries =
        if tries = 0 then None
        else begin
          let got = ref None in
          let raced = ref false in
          for k = 1 to jobs - 1 do
            if !got = None then
              match Wsq.steal deques.((w + k) mod jobs) with
              | Wsq.Stolen it -> got := Some it
              | Wsq.Retry -> raced := true
              | Wsq.Empty -> ()
          done;
          match !got with
          | Some _ as r -> r
          | None -> if !raced then scan (tries - 1) else None
        end
      in
      scan 32
    in
    let take () =
      match Wsq.pop my with Some _ as r -> r | None -> steal_any ()
    in
    let handle item =
      let pushes =
        if Atomic.fetch_and_add claimed 1 >= budget.max_schedules then begin
          Atomic.set dropped true;
          []
        end
        else process_item scenario ~budget ~state acc item
      in
      let n = List.length pushes in
      List.iter (Wsq.push my) pushes;
      if n > 0 then ignore (Atomic.fetch_and_add pending n);
      let left = Atomic.fetch_and_add pending (-1) - 1 in
      if n > 0 || left = 0 then Dpool.Gate.wake_all gate
    in
    let rec loop () =
      if Atomic.get pending > 0 then
        match take () with
        | Some item ->
          handle item;
          loop ()
        | None ->
          (* epoch-fenced sleep: re-check for work after reading the
             epoch so a wakeup between scan and sleep is never lost *)
          let seen = Dpool.Gate.epoch gate in
          (match take () with
          | Some item -> handle item
          | None -> if Atomic.get pending > 0 then Dpool.Gate.await gate ~seen);
          loop ()
    in
    loop ();
    acc
  in
  let accs = Dpool.scatter ~jobs worker in
  let acc = accs.(0) in
  for i = 1 to jobs - 1 do
    merge_into acc accs.(i)
  done;
  finalize scenario ~certs ~complete:((not (Atomic.get dropped)) && acc.a_truncated = 0) acc

let explore ?(budget = default_budget) ?certs ?(jobs = 1) (scenario : Scenario.t) =
  (* Concurrent runs are gated twice: the scenario must declare its runs
     self-contained (par_safe), and — when certificates are in play — no
     module it exercises may carry an unsafe-shared-state verdict. The
     static domains pass is what certifies the parallelism safe; absent
     that safety, fall back to one domain rather than race. *)
  let jobs =
    if jobs <= 1 then 1
    else if not scenario.Scenario.par_safe then 1
    else
      match certs with
      | Some c
        when not
               (List.for_all (Certificate.domain_clean c) scenario.Scenario.modules)
        -> 1
      | _ -> jobs
  in
  if jobs = 1 then explore_serial ~budget ~certs scenario
  else explore_parallel ~budget ~certs ~jobs scenario
