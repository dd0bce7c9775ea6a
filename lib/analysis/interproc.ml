module SL = Source_lint

type qcell = {
  q_line : int;
  q_count : int option;
  mutable q_adds : int;
  mutable q_unknown : bool;
}

type vfact =
  | VInt of int
  | VList of int
  | VQuorum of qcell
  | VNone

(* ---- the mutex acquisition-order graph: a digraph with cycle reporting *)

module Digraph = struct
  type edge = { src : string; dst : string; witness : string }

  type g = {
    succ : (string, edge list ref) Hashtbl.t;
    mutable nodes : string list;
  }

  let create () = { succ = Hashtbl.create 32; nodes = [] }

  let node g n =
    if not (List.mem n g.nodes) then g.nodes <- n :: g.nodes;
    match Hashtbl.find_opt g.succ n with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add g.succ n r;
      r

  let add_edge g ~src ~dst ~witness =
    let r = node g src in
    ignore (node g dst);
    if not (List.exists (fun e -> e.dst = dst) !r) then r := { src; dst; witness } :: !r

  let successors g n = match Hashtbl.find_opt g.succ n with Some r -> !r | None -> []

  (* Tarjan's strongly connected components. *)
  let sccs g =
    let index = Hashtbl.create 32 in
    let lowlink = Hashtbl.create 32 in
    let on_stack = Hashtbl.create 32 in
    let stack = ref [] in
    let counter = ref 0 in
    let out = ref [] in
    let rec strong v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace lowlink v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace on_stack v ();
      List.iter
        (fun e ->
          let w = e.dst in
          if not (Hashtbl.mem index w) then begin
            strong w;
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
        (successors g v);
      if Hashtbl.find lowlink v = Hashtbl.find index v then begin
        let comp = ref [] in
        let fin = ref false in
        while not !fin do
          match !stack with
          | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            comp := w :: !comp;
            if w = v then fin := true
          | [] -> fin := true
        done;
        out := !comp :: !out
      end
    in
    List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) (List.sort compare g.nodes);
    !out

  (* One witness cycle per cyclic SCC: the edge path [n1 -> n2 -> ... -> n1]
     found by BFS inside the component from its smallest node. *)
  let cycles g =
    let in_comp comp n = List.mem n comp in
    List.filter_map
      (fun comp ->
        let cyclic =
          match comp with
          | [ n ] -> List.exists (fun e -> e.dst = n) (successors g n)
          | _ :: _ :: _ -> true
          | [] -> false
        in
        if not cyclic then None
        else begin
          let s = List.fold_left min (List.hd comp) comp in
          (* BFS from s within the component back to s *)
          let parent : (string, edge) Hashtbl.t = Hashtbl.create 8 in
          let q = Queue.create () in
          let found = ref None in
          List.iter
            (fun e ->
              if !found = None && in_comp comp e.dst then
                if e.dst = s then found := Some [ e ]
                else if not (Hashtbl.mem parent e.dst) then begin
                  Hashtbl.replace parent e.dst e;
                  Queue.add e.dst q
                end)
            (successors g s);
          while !found = None && not (Queue.is_empty q) do
            let v = Queue.pop q in
            List.iter
              (fun e ->
                if !found = None && in_comp comp e.dst then
                  if e.dst = s then begin
                    (* reconstruct s -> ... -> v -> s *)
                    let rec back n acc =
                      if n = s then acc
                      else
                        let pe = Hashtbl.find parent n in
                        back pe.src (pe :: acc)
                    in
                    found := Some (back v [] @ [ e ])
                  end
                  else if not (Hashtbl.mem parent e.dst) then begin
                    Hashtbl.replace parent e.dst e;
                    Queue.add e.dst q
                  end)
              (successors g v)
          done;
          match !found with
          | Some path -> Some (s :: List.map (fun e -> e.dst) path, path)
          | None -> None
        end)
      (sccs g)
end

(* Module-level value facts: an int constant, a list literal's length,
   an alias of another name (chased for constants), or a mutex. *)
type mval = MInt of int | MLen of int | MAlias of string | MLock

type state = {
  p : Growth.project;
  sums : (string, Summary.t) Hashtbl.t;  (* function qname -> summary, first wins *)
  values : (string, mval) Hashtbl.t;  (* "Module.x" -> fact *)
  (* lock-order graph: canonical-name edges with their witness site *)
  edge_locs : (string * string, string * int) Hashtbl.t;
  lock_graph : Digraph.g;
}

let is_ident_at (a : Lexer.token array) i = i < Array.length a && Lexer.is_ident a.(i).Lexer.text

let int_of_token txt =
  int_of_string_opt (String.concat "" (String.split_on_char '_' txt))

(* Canonical name of a mutex expression ({!SL.canon}; module-level
   mutexes are the [Module.x] ones). Unknowable locks (parameters,
   complex expressions) still count as "a lock is held" but join no
   order graph. *)
let canon_lock st (fc : Growth.file_ctx) = function
  | None -> "?"
  | Some raw ->
    let mdl = fc.Growth.fc_mdl in
    SL.canon ~mdl raw ~top:(fun x ->
        Hashtbl.find_opt st.values (mdl ^ "." ^ x) = Some MLock)

(* ---- module-level value facts ---------------------------------------- *)

(* Length of a list literal starting at a "[" token: depth-0 [;] count. *)
let list_literal_length (a : Lexer.token array) i =
  let n = Array.length a in
  if i >= n || a.(i).Lexer.text <> "[" then None
  else begin
    let depth = ref 0 in
    let semis = ref 0 in
    let items = ref false in
    let j = ref i in
    let close = ref (-1) in
    while !close < 0 && !j < n do
      (match a.(!j).Lexer.text with
      | "[" | "(" | "{" -> incr depth
      | "]" | ")" | "}" ->
        decr depth;
        if !depth = 0 then close := !j
      | ";" when !depth = 1 -> incr semis
      | _ -> if !depth = 1 then items := true);
      incr j
    done;
    (* string literals are consumed by the lexer, so a separator implies
       two items even when no item token survives *)
    if !close < 0 then None
    else Some (if !semis > 0 then !semis + 1 else if !items then 1 else 0)
  end

(* The fact a module-level value binding [x = <rhs>] records, if any. *)
let value_fact (a : Lexer.token array) r e =
  if r >= e then None
  else
    let t = a.(r).Lexer.text in
    if t = "[" then Option.map (fun l -> MLen l) (list_literal_length a r)
    else
      match int_of_token t with
      | Some v when not (Lexer.is_ident t) -> Some (MInt v)
      | _ ->
        if not (Lexer.is_ident t) then None
        else
          let h = a.(r).Lexer.dotted and hn = SL.after a r in
          if SL.last2 h = "Mutex.create" then Some MLock
          else if
            (* a lone name is an alias worth chasing for constants *)
            hn >= e || a.(hn).Lexer.line <> a.(r).Lexer.line
          then Some (MAlias h)
          else None

(* A qualified mention [M.x] (or [Lib.M.x]) of a module-level constant or
   list, aliases chased a few hops so the arity rule can read a [Count]
   through a config module. *)
let rec lookup st name depth =
  if depth > 4 then None
  else
    let q = SL.last2 name in
    match Hashtbl.find_opt st.values q with
    | Some (MAlias d) ->
      let mdl = String.sub q 0 (String.index q '.') in
      lookup st (if SL.is_simple d then mdl ^ "." ^ d else d) (depth + 1)
    | found -> found

(* Iteration regions [(start, end, length source)] for inline-closure
   iterations; the length is resolved lazily at each [Event.add] so
   that list bindings made earlier in the same body are visible.
   [for]/[while] bodies get an unknown length. *)
type len_src = LUnknown | LLit of int | LName of string

let iter_regions (fc : Growth.file_ctx) (fn : Growth.fn) =
  let a = fc.Growth.fc_toks and pm = fc.Growth.fc_pm in
  let regions = ref [] in
  let loop_stack = ref [] in
  let i = ref fn.Growth.g_body in
  while !i < fn.Growth.g_e do
    if is_ident_at a !i then begin
      let name = a.(!i).Lexer.dotted and ni = SL.after a !i in
      (if name = "for" || name = "while" then loop_stack := !i :: !loop_stack
       else if name = "done" then
         match !loop_stack with
         | s :: rest ->
           regions := (s, !i, LUnknown) :: !regions;
           loop_stack := rest
         | [] -> ()
       else if List.mem (SL.last2 name) SL.iter_names then
         if ni < fn.Growth.g_e && a.(ni).Lexer.text = "(" && pm.(ni) >= 0 then begin
           let close = pm.(ni) in
           let len =
             if close + 1 < fn.Growth.g_e && a.(close + 1).Lexer.text = "[" then
               match list_literal_length a (close + 1) with
               | Some l -> LLit l
               | None -> LUnknown
             else
               match SL.parse_atom a pm (close + 1) with
               | SL.AName s, _ -> LName s
               | _ -> LUnknown
           in
           regions := (ni, close, len) :: !regions
         end);
      i := ni
    end
    else incr i
  done;
  !regions

(* ---- the per-function walk ------------------------------------------ *)

(* the summary of the function a name resolves to, as written in [mdl] *)
let resolve st ~mdl name =
  Option.bind (Growth.resolve st.p ~mdl name) (Hashtbl.find_opt st.sums)

let walk st (fc : Growth.file_ctx) (fn : Growth.fn) ~(own : Summary.t option)
    ~(emit : (Finding.t -> unit) option) =
  let a = fc.Growth.fc_toks and pm = fc.Growth.fc_pm in
  let path = fc.Growth.fc_path and mdl = fc.Growth.fc_mdl in
  let f_body = fn.Growth.g_body and f_end = fn.Growth.g_e in
  let env : (string, vfact) Hashtbl.t = Hashtbl.create 16 in
  let quorums = ref [] in
  let lregions =
    List.map (fun (m, s, e) -> (canon_lock st fc m, s, e)) (SL.lock_regions a pm f_body f_end)
  in
  let iregions = iter_regions fc fn in
  (match own with
  | Some o ->
    List.iter (fun (l, _, _) -> if SL.canonical l then Summary.add_acquire o l) lregions
  | None -> ());
  let held i = List.filter_map (fun (l, s, e) -> if s <= i && i <= e then Some l else None) lregions in
  let held_names held =
    String.concat ", " (List.map (fun l -> if SL.canonical l then l else "a mutex") held)
  in
  let add_lock_edge src dst line =
    if SL.canonical src && SL.canonical dst && src <> dst then begin
      if not (Hashtbl.mem st.edge_locs (src, dst)) then
        Hashtbl.replace st.edge_locs (src, dst) (path, line);
      Digraph.add_edge st.lock_graph ~src ~dst
        ~witness:(Printf.sprintf "%s:%d" path line)
    end
  in
  (* intra-function nesting: acquiring B inside A's region orders A -> B *)
  List.iter
    (fun (lb, sb, _) ->
      List.iter
        (fun (la, sa, ea) -> if sa < sb && sb <= ea then add_lock_edge la lb a.(sb).Lexer.line)
        lregions)
    lregions;
  let emit_finding f = match emit with Some e -> e f | None -> () in
  let lock_across_call line message =
    emit_finding
      (Finding.v ~rule:Finding.lock_across_call ~severity:Finding.Error
         ~loc:(Finding.File { file = path; line })
         message)
  in
  (* a direct suspension point: the callee-less half of lock-across-call *)
  let suspend i line what =
    (match own with Some o -> o.Summary.suspends <- true | None -> ());
    match held i with
    | [] -> ()
    | held_here ->
      lock_across_call line
        (Printf.sprintf "%s while holding %s: %s" what (held_names held_here)
           (if String.starts_with ~prefix:"Condvar" what then
              "Depfast.Condvar does not release the mutex, so this deadlocks or \
               serialises every contender behind one slow firer"
            else
              "a single slow firer blocks every coroutine contending on the lock (the \
               RethinkDB hazard, paper §2)"))
  in
  (* value fact of a name in value position (variable, module value) *)
  let fact_of_name name =
    let of_mval = function Some (MInt v) -> VInt v | Some (MLen v) -> VList v | _ -> VNone in
    if SL.is_simple name then
      match Hashtbl.find_opt env name with
      | Some f -> f
      | None -> of_mval (Hashtbl.find_opt st.values (mdl ^ "." ^ name))
    else if name.[0] >= 'A' && name.[0] <= 'Z' then of_mval (lookup st name 0)
    else VNone
  in
  (* value fact of an applied (or copied) head: a call yields nothing *)
  let head_fact h = match resolve st ~mdl h with Some _ -> VNone | None -> fact_of_name h in
  (* weight of one Event.add at token [i]: product of the lengths of the
     iteration regions covering it; None when any is unknown *)
  let add_weight i =
    List.fold_left
      (fun acc (s, e, len) ->
        if s <= i && i <= e then
          let l =
            match len with
            | LLit l -> Some l
            | LName nm -> ( match fact_of_name nm with VList l -> Some l | _ -> None)
            | LUnknown -> None
          in
          match (acc, l) with Some w, Some l -> Some (w * l) | _ -> None
        else acc)
      (Some 1) iregions
  in
  (* parse an [Event.quorum (Event.Count k)] argument following the head *)
  let quorum_cell line ni =
    let count =
      if ni < f_end && a.(ni).Lexer.text = "(" && pm.(ni) >= 0 then begin
        let close = pm.(ni) in
        let c = ref None in
        let j = ref (ni + 1) in
        while !c = None && !j < close do
          if a.(!j).Lexer.text = "Count" && !j + 1 < close then begin
            let k = ref (!j + 1) in
            while !k < close && a.(!k).Lexer.text = "(" do
              incr k
            done;
            (if !k < close then
               let t = a.(!k).Lexer.text in
               if Lexer.is_ident t then begin
                 match fact_of_name a.(!k).Lexer.dotted with
                 | VInt v -> c := Some v
                 | _ -> c := Some (-1) (* Count of something unresolvable: give up *)
               end
               else match int_of_token t with Some v -> c := Some v | None -> c := Some (-1));
            j := close
          end
          else incr j
        done;
        match !c with Some v when v >= 0 -> Some v | _ -> None
      end
      else None
    in
    let qc = { q_line = line; q_count = count; q_adds = 0; q_unknown = false } in
    quorums := qc :: !quorums;
    qc
  in
  let mark_escaped at =
    match at with
    | SL.AName s when SL.is_simple s -> (
      match Hashtbl.find_opt env s with
      | Some (VQuorum qc) -> qc.q_unknown <- true
      | _ -> ())
    | _ -> ()
  in
  (* a resolvable call: propagate suspension/lock facts, check held
     locks, and let a quorum passed as an argument escape *)
  let handle_call (callee : Summary.t) line i ni =
    let held_here = held i in
    (match own with
    | Some o ->
      if callee.Summary.suspends then o.Summary.suspends <- true;
      List.iter (fun l -> Summary.add_acquire o l) callee.Summary.acquires
    | None -> ());
    List.iter
      (fun h -> List.iter (fun acq -> add_lock_edge h acq line) callee.Summary.acquires)
      held_here;
    if callee.Summary.suspends && held_here <> [] then
      lock_across_call line
        (Printf.sprintf
           "call to %s while holding %s: the callee (transitively) suspends on an event, so \
            one slow firer blocks every contender on the lock (the RethinkDB hazard, paper \
            §2, across a call boundary)"
           callee.Summary.qname (held_names held_here));
    (* positional arguments, labels skipped; stop at the first non-atom *)
    let j = ref ni in
    let pos = ref 0 in
    let stop = ref false in
    while (not !stop) && !j < f_end && !pos < 8 do
      let t = a.(!j).Lexer.text in
      if t = "~" || t = "?" then begin
        j := !j + 2;
        if !j < f_end && a.(!j).Lexer.text = ":" then begin
          let at, j' = SL.parse_atom a pm (!j + 1) in
          mark_escaped at;
          j := j'
        end
      end
      else begin
        let at, j' = SL.parse_atom a pm !j in
        match at with
        | SL.AOther -> stop := true
        | _ ->
          mark_escaped at;
          incr pos;
          j := j'
      end
    done
  in
  let handle_binding pat rhs line eq =
    let bind1 name f =
      Hashtbl.remove env name;
      match f with VNone -> () | f -> Hashtbl.replace env name f
    in
    match (pat, rhs) with
    | SL.PVar name, SL.RHead (Some h) ->
      if SL.last2 h = "Event.quorum" then begin
        (* the head token follows the [=]; find it to parse the arity *)
        let k = ref (eq + 1) in
        while !k < f_end && a.(!k).Lexer.text = "(" do
          incr k
        done;
        if is_ident_at a !k then bind1 name (VQuorum (quorum_cell line (SL.after a !k)))
      end
      else bind1 name (head_fact h)
    | SL.PVar name, SL.RHead None ->
      if eq + 1 < f_end && a.(eq + 1).Lexer.text = "[" then
        (* local list literals feed iteration lengths *)
        bind1 name
          (match list_literal_length a (eq + 1) with Some l -> VList l | None -> VNone)
      else (
        match int_of_token a.(eq + 1).Lexer.text with
        | Some v when eq + 1 < f_end -> bind1 name (VInt v)
        | _ -> bind1 name VNone)
    | SL.PVar name, SL.RTuple _ -> bind1 name VNone
    | SL.PTuple names, SL.RTuple comps ->
      List.iteri
        (fun i name ->
          match List.nth_opt comps i with
          | Some (Some h) -> bind1 name (head_fact h)
          | _ -> bind1 name VNone)
        names
    | SL.PTuple names, SL.RHead _ -> List.iter (fun n -> bind1 n VNone) names
  in
  (* ---- linear scan in program order ---- *)
  let i = ref f_body in
  while !i < f_end do
    (match SL.binding_at a pm !i with
    | Some (pat, rhs, eq) -> handle_binding pat rhs a.(!i).Lexer.line eq
    | None -> ());
    if is_ident_at a !i then begin
      let name = a.(!i).Lexer.dotted and line = a.(!i).Lexer.line and ni = SL.after a !i in
      (match SL.last2 name with
      | ("Sched.wait" | "Sched.wait_timeout" | "Condvar.wait" | "Condvar.wait_timeout") as w ->
        suspend !i line w
      | "Event.add" -> (
        let parent, _ = SL.parse_atom a pm ni in
        match parent with
        | SL.AName p when SL.is_simple p -> (
          match Hashtbl.find_opt env p with
          | Some (VQuorum qc) -> (
            match add_weight !i with
            | Some w -> qc.q_adds <- qc.q_adds + w
            | None -> qc.q_unknown <- true)
          | _ -> ())
        | _ -> ())
      | "Mutex.lock" | "Mutex.unlock" | "Mutex.with_lock" -> ()
      | _ -> (
        match resolve st ~mdl name with
        | Some callee -> handle_call callee line !i ni
        | None -> ()));
      i := ni
    end
    else incr i
  done;
  (* a quorum a function returns (its body's last line is the lone
     name) escapes: children may be added elsewhere *)
  (if own <> None && f_end > f_body then
     let last = f_end - 1 in
     if
       (last = f_body || a.(last - 1).Lexer.line <> a.(last).Lexer.line)
       && is_ident_at a last && SL.is_simple a.(last).Lexer.text
     then
       match Hashtbl.find_opt env a.(last).Lexer.text with
       | Some (VQuorum qc) -> qc.q_unknown <- true
       | _ -> ());
  (* quorum arity verdicts *)
  List.iter
    (fun qc ->
      match qc.q_count with
      | Some k when (not qc.q_unknown) && qc.q_adds > 0 && k > qc.q_adds ->
        emit_finding
          (Finding.v ~rule:Finding.quorum_arity_mismatch ~severity:Finding.Error
             ~loc:(Finding.File { file = path; line = qc.q_line })
             (Printf.sprintf
                "quorum requires Count %d but only %d child event(s) statically flow into \
                 it: it can never fire (constants resolved across modules)"
                k qc.q_adds))
      | _ -> ())
    !quorums

(* ---- the whole-project pass ----------------------------------------- *)

let analyze p =
  let st =
    {
      p;
      sums = Hashtbl.create 256;
      values = Hashtbl.create 64;
      edge_locs = Hashtbl.create 16;
      lock_graph = Digraph.create ();
    }
  in
  (* functions get summaries; value bindings are walked for findings
     and harvested for module-level facts *)
  let summaries = ref [] and units = ref [] in
  List.iter
    (fun (fc : Growth.file_ctx) ->
      let a = fc.Growth.fc_toks in
      List.iter
        (fun (fn : Growth.fn) ->
          match fn.Growth.g_shape with
          | Growth.Fun _ ->
            let s =
              Summary.create ~qname:fn.Growth.g_qname ~file:fc.Growth.fc_path
                ~line:fn.Growth.g_line
            in
            if not (Hashtbl.mem st.sums s.Summary.qname) then Hashtbl.add st.sums s.Summary.qname s;
            summaries := (fc, fn, s) :: !summaries
          | Growth.Value ->
            (* a named value [let x = ...] has its name just before the [=] *)
            let named = is_ident_at a (fn.Growth.g_body - 2) in
            (if named && not (Hashtbl.mem st.values fn.Growth.g_qname) then
               match value_fact a fn.Growth.g_body fn.Growth.g_e with
               | Some m -> Hashtbl.add st.values fn.Growth.g_qname m
               | None -> ());
            units := (fc, fn) :: !units
          | Growth.Other -> ())
        fc.Growth.fc_fns)
    (Growth.files p);
  let summaries = List.rev !summaries and units = List.rev !units in
  let walk_all st ~emit =
    List.iter (fun (fc, fn, s) -> walk st fc fn ~own:(Some s) ~emit) summaries;
    List.iter (fun (fc, u) -> walk st fc u ~own:None ~emit) units
  in
  (* fixpoint: summaries feed each other across files *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    incr rounds;
    let before = List.map (fun (_, _, s) -> Summary.fingerprint s) summaries in
    walk_all st ~emit:None;
    changed := before <> List.map (fun (_, _, s) -> Summary.fingerprint s) summaries
  done;
  (* reporting round: rebuild the lock graph from scratch so every edge
     reflects fixpoint facts, then emit findings *)
  Hashtbl.reset st.edge_locs;
  let st = { st with lock_graph = Digraph.create () } in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  walk_all st ~emit:(Some emit);
  (* lock-order cycles *)
  List.iter
    (fun (path, edges) ->
      match edges with
      | [] -> ()
      | first :: _ ->
        let loc =
          match Hashtbl.find_opt st.edge_locs (first.Digraph.src, first.Digraph.dst) with
          | Some (file, line) -> Finding.File { file; line }
          | None -> Finding.File { file = "<unknown>"; line = 0 }
        in
        let sites =
          String.concat "; "
            (List.map
               (fun (e : Digraph.edge) ->
                 Printf.sprintf "%s -> %s at %s" e.Digraph.src e.Digraph.dst e.Digraph.witness)
               edges)
        in
        emit
          (Finding.v ~rule:Finding.lock_order_cycle ~severity:Finding.Error ~loc
             (Printf.sprintf
                "mutex acquisition-order cycle %s: two coroutines taking opposite ends \
                 deadlock outright — and under fail-slow faults even the non-deadlocked \
                 interleavings convoy (acquisition sites: %s)"
                (String.concat " -> " path) sites)))
    (Digraph.cycles st.lock_graph);
  Growth.allow p !findings
  |> List.sort_uniq (fun a b ->
         let c = Finding.by_location a b in
         if c <> 0 then c else compare a b)

let analyze_files paths = analyze (Growth.load_files paths)
