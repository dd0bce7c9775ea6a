(* Interprocedural slowness taint: which functions are (transitively)
   downstream of a fail-slow resource site. Seeds are syntactic heads —
   disk submissions, net/rpc sends and deliveries, declared cost-model
   work, and flagged growth sites from the boundedness pass — and taint
   flows callee -> caller over {!Growth}'s call graph: a synchronous
   caller inherits the slowness of everything it invokes. Each tainted
   function keeps a deterministic least-(file, line) seed witness and
   one call-chain path back to it, so certificates can print the same
   evidence regardless of discovery order. *)

module SL = Source_lint

type fault = Cpu_slow | Disk_slow | Net_slow | Memory

let fault_name = function
  | Cpu_slow -> "cpu-slow"
  | Disk_slow -> "disk-slow"
  | Net_slow -> "net-slow"
  | Memory -> "memory"

let all = [ Cpu_slow; Disk_slow; Net_slow; Memory ]
let fault_rank = function Cpu_slow -> 0 | Disk_slow -> 1 | Net_slow -> 2 | Memory -> 3

type source = { s_fault : fault; s_head : string; s_file : string; s_line : int }

type taint = {
  t_source : source;  (** least-(file, line, head) seed reaching this fn *)
  t_path : string list;  (** qnames, this fn first, seed fn last *)
}

type t = {
  (* (fault rank, fn qname) -> best taint *)
  tbl : (int * string, taint) Hashtbl.t;
  sources : source list;  (** every seed site, sorted *)
}

(* Heads seeding each fault kind, matched on the last two dot-segments
   of a qualified mention (so [Cluster.Disk.write] and [Disk.write]
   both hit). [Disk.write]/[fsync] are slowness sources like any other:
   awaiting one's own WAL is protocol-inherent, but a slow disk still
   delays whoever awaits it — exactly the exposure we chart, and why
   such a wait carries a pragma rather than no finding. The net seeds
   that hand back a waitable event are the rpc completions. *)
let rpc_completions = [ "Rpc.event"; "Event.rpc_completion" ]

let seed_heads =
  [
    ("Disk.write", Disk_slow);
    ("Disk.fsync", Disk_slow);
    ("Disk.read", Disk_slow);
    ("Event.disk_completion", Disk_slow);
    ("Rpc.call", Net_slow);
    ("Rpc.broadcast", Net_slow);
    ("Rpc.serve", Net_slow);
    ("Net.send", Net_slow);
    ("Net.register", Net_slow);
    ("Node.cpu_work", Cpu_slow);
  ]
  @ List.map (fun h -> (h, Net_slow)) rpc_completions

let source_key s = (s.s_file, s.s_line, s.s_head, fault_rank s.s_fault)

let taint_key t =
  (source_key t.t_source, List.length t.t_path, t.t_path)

let better a b = compare (taint_key a) (taint_key b) < 0

(* Seeds mentioned directly in a function body. *)
let scan_seeds (fc : Growth.file_ctx) (fn : Growth.fn) =
  let toks = fc.Growth.fc_toks in
  let acc = ref [] in
  let i = ref fn.Growth.g_b in
  while !i < fn.Growth.g_e do
    let t = toks.(!i) in
    (* module segments start uppercase; the lexer joins the dotted
       mention across its separate "." tokens *)
    if Lexer.is_ident t.Lexer.text && t.Lexer.text.[0] >= 'A' && t.Lexer.text.[0] <= 'Z'
    then begin
      let name = t.Lexer.dotted and line = t.Lexer.line and j = SL.after toks !i in
      (if String.contains name '.' then
         match List.assoc_opt (SL.last2 name) seed_heads with
         | Some k ->
           acc :=
             { s_fault = k; s_head = SL.last2 name; s_file = fc.Growth.fc_path; s_line = line }
             :: !acc
         | None -> ());
      i := j
    end
    else incr i
  done;
  List.rev !acc

(* Map a (file, line) growth site to its enclosing function. *)
let fn_at_line (fc : Growth.file_ctx) line =
  List.fold_left
    (fun best (fn : Growth.fn) ->
      if fn.Growth.g_line <= line then
        match best with
        | Some (b : Growth.fn) when b.Growth.g_line >= fn.Growth.g_line -> best
        | _ -> Some fn
      else best)
    None fc.Growth.fc_fns

let analyze (p : Growth.project) =
  let tbl : (int * string, taint) Hashtbl.t = Hashtbl.create 256 in
  let sources = ref [] in
  let seed fn_qname s =
    sources := s :: !sources;
    let key = (fault_rank s.s_fault, fn_qname) in
    let cand = { t_source = s; t_path = [ fn_qname ] } in
    match Hashtbl.find_opt tbl key with
    | Some old when not (better cand old) -> ()
    | _ -> Hashtbl.replace tbl key cand
  in
  let files = Growth.files p in
  (* direct seeds: head mentions in bodies, plus the defining functions
     themselves (so [Disk.write]'s own definition is a disk source and
     every resolvable caller inherits it through the call graph even
     without spelling the head qualified) *)
  List.iter
    (fun fc ->
      List.iter
        (fun (fn : Growth.fn) ->
          (match List.assoc_opt fn.Growth.g_qname seed_heads with
          | Some k ->
            seed fn.Growth.g_qname
              {
                s_fault = k;
                s_head = fn.Growth.g_qname;
                s_file = fc.Growth.fc_path;
                s_line = fn.Growth.g_line;
              }
          | None -> ());
          List.iter (seed fn.Growth.g_qname) (scan_seeds fc fn))
        fc.Growth.fc_fns)
    files;
  (* memory-pressure seeds: growth sites the boundedness pass flagged
     as unbounded (a bounded queue is not a slowness source) and no
     pragma exempted — an [allow unbounded-growth] means a human
     certified the site bounded in practice, so it does not radiate *)
  let _, gcerts = Growth.analyze p in
  List.iter
    (fun (c : Growth.cert) ->
      if c.Growth.c_verdict = Growth.Flagged then
        List.iter
          (fun fc ->
            if
              fc.Growth.fc_path = c.Growth.c_file
              && not (Lexer.allows fc.Growth.fc_pragmas Finding.unbounded_growth c.Growth.c_line)
            then
              match fn_at_line fc c.Growth.c_line with
              | Some fn ->
                seed fn.Growth.g_qname
                  {
                    s_fault = Memory;
                    s_head = c.Growth.c_kind;
                    s_file = c.Growth.c_file;
                    s_line = c.Growth.c_line;
                  }
              | None -> ())
          files)
    gcerts;
  (* callee -> caller fixpoint with least-witness merging; keys only
     ever decrease, so this terminates even across call cycles *)
  let fns =
    List.concat_map
      (fun fc -> List.map (fun (f : Growth.fn) -> f.Growth.g_qname) fc.Growth.fc_fns)
      files
    |> List.sort_uniq compare
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun caller ->
        List.iter
          (fun callee ->
            if callee <> caller then
              List.iter
                (fun k ->
                  match Hashtbl.find_opt tbl (fault_rank k, callee) with
                  | None -> ()
                  | Some tc ->
                    if not (List.mem caller tc.t_path) then begin
                      let cand = { tc with t_path = caller :: tc.t_path } in
                      let key = (fault_rank k, caller) in
                      match Hashtbl.find_opt tbl key with
                      | Some old when not (better cand old) -> ()
                      | _ ->
                        Hashtbl.replace tbl key cand;
                        changed := true
                    end)
                all)
          (Growth.callees p caller))
      fns
  done;
  { tbl; sources = List.sort_uniq (fun a b -> compare (source_key a) (source_key b)) !sources }

let taints t qname =
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt t.tbl (fault_rank k, qname) with
      | Some taint -> Some (k, taint)
      | None -> None)
    all
