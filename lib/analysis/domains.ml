(* Front end 5: depfast-domains — ownership verdicts over the mutable
   state inventory, domain-safety certificates, and per-file effect
   footprints. *)

type footprint = string * (string list * string list)

let class_immutable = "immutable-after-init"
let class_engine = "engine-owned"
let class_guarded = "guarded"
let class_unsafe = "unsafe-shared"

let analyze p =
  let eff = Effects.compute p in
  (* writes per cell, in (file, line) order so witnesses are stable *)
  let writes = Hashtbl.create 64 in
  List.iter
    (fun (a : Effects.access) ->
      if a.Effects.a_write then
        Hashtbl.replace writes a.Effects.a_cell
          (a :: (try Hashtbl.find writes a.Effects.a_cell with Not_found -> [])))
    (List.rev eff.Effects.e_accesses);
  let findings = ref [] in
  let certs = ref [] in
  List.iter
    (fun (c : Effects.cell) ->
      let ws = try Hashtbl.find writes c.Effects.cl_name with Not_found -> [] in
      let unlocked = List.filter (fun (a : Effects.access) -> not a.Effects.a_locked) ws in
      let nws = List.length ws in
      let cls, verdict, evidence =
        match c.Effects.cl_kind with
        | Effects.Atomic ->
          (class_guarded, Growth.Bounded, "lock-free: every operation an atomic read-modify-write")
        | Effects.Field ->
          if ws = [] then
            (class_immutable, Growth.Bounded, "mutable field never assigned anywhere in the tree")
          else if unlocked = [] then
            ( class_guarded,
              Growth.Bounded,
              Printf.sprintf "%d assignment site(s), all under a Mutex region" nws )
          else
            let tops = List.length (List.filter (fun (a : Effects.access) -> a.Effects.a_top) ws) in
            ( class_engine,
              Growth.Bounded,
              if tops = 0 then
                Printf.sprintf "%d assignment site(s), every base a threaded record value" nws
              else
                Printf.sprintf
                  "%d assignment site(s); %d through top-level bases, judged at those cells"
                  nws tops )
        | _ ->
          if ws = [] then
            (class_immutable, Growth.Bounded, "never written after its initializer")
          else if unlocked = [] then
            ( class_guarded,
              Growth.Bounded,
              Printf.sprintf "%d write site(s), all under a Mutex region" nws )
          else
            let w = List.hd unlocked in
            ( class_unsafe,
              Growth.Flagged,
              Printf.sprintf "written at %s:%d outside any Mutex region" w.Effects.a_file
                w.Effects.a_line )
      in
      certs :=
        {
          Growth.c_rule = Finding.unsafe_shared_state;
          c_kind = Effects.kind_name c.Effects.cl_kind;
          c_file = c.Effects.cl_file;
          c_line = c.Effects.cl_line;
          c_site = c.Effects.cl_name;
          c_verdict = verdict;
          c_evidence = cls ^ ": " ^ evidence;
        }
        :: !certs;
      if verdict = Growth.Flagged then begin
        let w = List.hd unlocked in
        findings :=
          Finding.v ~rule:Finding.unsafe_shared_state ~severity:Finding.Error
            ~loc:(Finding.File { file = c.Effects.cl_file; line = c.Effects.cl_line })
            (Printf.sprintf
               "top-level %s %s is written at %s:%d outside any Mutex region or owner \
                record: a data race once this runs across OCaml 5 domains — make it \
                atomic, guard it, or scope it per instance"
               (Effects.kind_name c.Effects.cl_kind)
               c.Effects.cl_name w.Effects.a_file w.Effects.a_line)
          :: !findings
      end)
    eff.Effects.e_cells;
  (* Per-file effect footprints: the union of the closed summaries of
     the file's items. Restricted to the schedule-relevant cells: [.field]
     effects are engine-owned (their sharing is judged at top-level base
     cells, whose writes ARE in the footprint) and atomic cells are
     linearizable counters — keeping either would put e.g.
     [Event.next_id] in every file that allocates an event. *)
  let excluded = Hashtbl.create 32 in
  List.iter
    (fun (c : Effects.cell) ->
      if c.Effects.cl_kind = Effects.Atomic then
        Hashtbl.replace excluded c.Effects.cl_name ())
    eff.Effects.e_cells;
  let keep c = String.length c > 0 && c.[0] <> '.' && not (Hashtbl.mem excluded c) in
  let footprints =
    List.map
      (fun (fc : Growth.file_ctx) ->
        let reads = ref [] and wrs = ref [] in
        List.iter
          (fun (f : Growth.fn) ->
            match Effects.fn_summary eff f.Growth.g_qname with
            | None -> ()
            | Some s ->
              List.iter
                (fun c -> if keep c && not (List.mem c !reads) then reads := c :: !reads)
                s.Summary.reads;
              List.iter
                (fun c -> if keep c && not (List.mem c !wrs) then wrs := c :: !wrs)
                s.Summary.writes)
          fc.Growth.fc_fns;
        (fc.Growth.fc_path, (List.sort compare !reads, List.sort compare !wrs)))
      (Growth.files p)
  in
  ( List.sort_uniq Finding.by_location (Growth.allow p !findings),
    List.sort_uniq Growth.by_site !certs,
    footprints )

let analyze_files paths = analyze (Growth.load_files paths)
