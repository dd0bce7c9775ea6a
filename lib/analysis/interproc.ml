module SL = Source_lint

(* Where a remote-completion fact came from; only facts that crossed a
   boundary the per-file lint cannot see (another module, a record
   field) are reported here — same-file facts are Source_lint's job. *)
type prov = PLocal | PCross of string | PField of string

type qcell = {
  q_line : int;
  q_count : int option;
  mutable q_adds : int;
  mutable q_unknown : bool;
}

type vfact =
  | VRemote of SL.kind * prov
  | VParam of int
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
   an alias of another name (chased for constants), a mutex, or a bare
   remote completion. *)
type mval = MInt of int | MLen of int | MAlias of string | MLock | MRemote of SL.kind

type state = {
  p : Growth.project;
  sums : (string, Summary.t) Hashtbl.t;  (* function qname -> summary, first wins *)
  values : (string, string * mval) Hashtbl.t;  (* "Module.x" -> defining file, fact *)
  fields : (string, SL.kind * string) Hashtbl.t;  (* record field -> kind, set-in file *)
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
        match Hashtbl.find_opt st.values (mdl ^ "." ^ x) with Some (_, MLock) -> true | _ -> false)

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
          let h, _, hn = SL.qualified a r in
          let l2 = SL.last2 h in
          if l2 = "Mutex.create" then Some MLock
          else
            match List.assoc_opt l2 SL.builtin_producers with
            | Some k -> Some (MRemote k)
            | None ->
              (* a lone name is an alias worth chasing for constants *)
              if hn >= e || a.(hn).Lexer.line <> a.(r).Lexer.line then Some (MAlias h)
              else None

(* A qualified mention [M.x] (or [Lib.M.x]) of a module-level constant or
   list, aliases chased a few hops so the arity rule can read a [Count]
   through a config module. *)
let rec lookup st name depth =
  if depth > 4 then None
  else
    let q = SL.last2 name in
    match Hashtbl.find_opt st.values q with
    | Some (_, MAlias d) ->
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
      let name, _, ni = SL.qualified a !i in
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
  (match fn.Growth.g_shape with
  | Growth.Fun params ->
    List.iteri (fun i p -> if p <> "_" then Hashtbl.replace env p (VParam i)) params
  | Growth.Value | Growth.Other -> ());
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
  let set_suspends () = match own with Some o -> o.Summary.suspends <- true | None -> () in
  let set_field f k =
    if not (Hashtbl.mem st.fields f) then Hashtbl.replace st.fields f (k, path)
  in
  (* value fact of a name in value position (variable, module value,
     record-field access) *)
  let fact_of_name name =
    if SL.is_simple name then
      match Hashtbl.find_opt env name with
      | Some f -> f
      | None -> (
        match Hashtbl.find_opt st.values (mdl ^ "." ^ name) with
        | Some (_, MRemote k) -> VRemote (k, PLocal)
        | Some (_, MInt v) -> VInt v
        | Some (_, MLen v) -> VList v
        | _ -> VNone)
    else
      if not (name.[0] >= 'A' && name.[0] <= 'Z') then (
        (* record-field path x.f / x.M.f *)
        match Hashtbl.find_opt st.fields (SL.last_segment name) with
        | Some (k, src) -> VRemote (k, PField src)
        | None -> VNone)
      else
        match Hashtbl.find_opt st.values (SL.last2 name) with
        | Some (src, MRemote k) -> VRemote (k, if src = path then PLocal else PCross src)
        | _ -> (
          match lookup st name 0 with
          | Some (_, MInt v) -> VInt v
          | Some (_, MLen v) -> VList v
          | _ -> VNone)
  in
  (* value fact of an applied (or copied) head *)
  let head_fact h =
    let l2 = SL.last2 h in
    match List.assoc_opt l2 SL.builtin_producers with
    | Some k -> VRemote (k, PLocal)
    | None ->
      (* same policy as the per-file pass: awaiting your own WAL
         durability is protocol-inherent, so [Disk.write]/[fsync]
         results are not remote-completion facts — even though the
         call graph could prove they carry one *)
      if List.mem l2 SL.local_constructors || l2 = "Disk.write" || l2 = "Disk.fsync" then VNone
      else (
        match resolve st ~mdl h with
        | Some callee -> (
          match callee.Summary.ret with
          | [ Some k ] ->
            VRemote (k, if callee.Summary.file = path then PLocal else PCross callee.Summary.file)
          | _ -> VNone)
        | None -> fact_of_name h)
  in
  let atom_fact = function
    | SL.AName s -> fact_of_name s
    | SL.AParen (Some h) -> head_fact h
    | SL.AParen None | SL.AOther -> VNone
  in
  let emit_finding f = match emit with Some e -> e f | None -> () in
  let emit_xmod line k p =
    let severity = match k with SL.Rpc -> Finding.Error | SL.Disk -> Finding.Warning in
    let where =
      match p with
      | PCross file -> Printf.sprintf "produced in %s" file
      | PField src -> Printf.sprintf "carried by a record field set in %s" src
      | PLocal -> "produced locally"
    in
    emit_finding
      (Finding.v ~rule:Finding.cross_module_red_wait ~severity
         ~loc:(Finding.File { file = path; line })
         (Printf.sprintf
            "wait on a bare %s completion %s: no per-file pass can see this; wrap it in \
             Event.quorum or race it against a timer via Event.or_ at the producer or here"
            (SL.kind_name k) where))
  in
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
                 let cn, _, _ = SL.qualified a !k in
                 match fact_of_name cn with
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
     locks, thread arguments into the callee's waited parameters *)
  let handle_call (callee : Summary.t) line i ni =
    let held_here = held i in
    (match own with
    | Some o ->
      if callee.Summary.suspends then o.Summary.suspends <- true;
      List.iter (fun l -> Summary.add_acquire o l) callee.Summary.acquires
    | None -> ());
    List.iter
      (fun h ->
        List.iter (fun acq -> add_lock_edge h acq line) callee.Summary.acquires;
        if callee.Summary.suspends then
          emit_finding
            (Finding.v ~rule:Finding.lock_across_call ~severity:Finding.Error
               ~loc:(Finding.File { file = path; line })
               (Printf.sprintf
                  "call to %s while holding %s: the callee (transitively) suspends on an \
                   event, so one slow firer blocks every contender on the lock (the \
                   RethinkDB hazard, paper §2, across a call boundary)"
                  callee.Summary.qname
                  (String.concat ", "
                     (List.map (fun l -> if SL.canonical l then l else "a mutex") held_here)))))
      held_here;
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
          if List.mem !pos callee.Summary.wait_params then begin
            match atom_fact at with
            | VRemote (k, _) when callee.Summary.file <> path ->
              let severity = match k with SL.Rpc -> Finding.Error | SL.Disk -> Finding.Warning in
              emit_finding
                (Finding.v ~rule:Finding.cross_module_red_wait ~severity
                   ~loc:(Finding.File { file = path; line })
                   (Printf.sprintf
                      "bare %s completion passed to %s, which waits on its argument: a \
                       cross-module red wait split between caller and callee"
                      (SL.kind_name k) callee.Summary.qname))
            | VParam idx -> (
              match own with Some o -> Summary.add_wait_param o idx | None -> ())
            | _ -> ()
          end;
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
        if is_ident_at a !k then begin
          let _, _, hend = SL.qualified a !k in
          bind1 name (VQuorum (quorum_cell line hend))
        end
      end
      else if
        (* local list literals feed iteration lengths *)
        eq + 1 < f_end && a.(eq + 1).Lexer.text = "["
      then
        match list_literal_length a (eq + 1) with
        | Some l -> bind1 name (VList l)
        | None -> bind1 name VNone
      else bind1 name (head_fact h)
    | SL.PVar name, SL.RHead None ->
      if eq + 1 < f_end && a.(eq + 1).Lexer.text = "[" then (
        match list_literal_length a (eq + 1) with
        | Some l -> bind1 name (VList l)
        | None -> bind1 name VNone)
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
    | SL.PTuple names, SL.RHead (Some h) ->
      let comps =
        match resolve st ~mdl h with
        | Some callee ->
          List.map
            (fun c ->
              match c with
              | Some k ->
                VRemote
                  (k, if callee.Summary.file = path then PLocal else PCross callee.Summary.file)
              | None -> VNone)
            callee.Summary.ret
        | None -> []
      in
      List.iteri
        (fun i name ->
          match List.nth_opt comps i with Some f -> bind1 name f | None -> bind1 name VNone)
        names
    | SL.PTuple names, SL.RHead None -> List.iter (fun n -> bind1 n VNone) names
  in
  (* record literal at token [i]: each [field = <head>] with a remote
     head registers a field fact *)
  let handle_record i =
    let depth = ref 0 in
    let j = ref i in
    let expect_field = ref true in
    let fin = ref false in
    while (not !fin) && !j < f_end do
      let t = a.(!j).Lexer.text in
      (match t with
      | "{" | "(" | "[" ->
        incr depth;
        if t = "{" && !j > i then expect_field := false
      | "}" | ")" | "]" ->
        decr depth;
        if !depth = 0 then fin := true
      | ";" when !depth = 1 -> expect_field := true
      | "=" when !depth = 1 ->
        (* token before [=] is the field, head after it is the value *)
        if !expect_field && !j > i + 1 && Lexer.is_ident a.(!j - 1).Lexer.text then begin
          let field = a.(!j - 1).Lexer.text in
          let k = ref (!j + 1) in
          while !k < f_end && a.(!k).Lexer.text = "(" do
            incr k
          done;
          if is_ident_at a !k then begin
            let h, _, _ = SL.qualified a !k in
            match head_fact h with
            | VRemote (kk, _) -> set_field field kk
            | _ -> ()
          end
        end;
        expect_field := false
      | _ -> ());
      incr j
    done
  in
  (* ---- linear scan in program order ---- *)
  let i = ref f_body in
  while !i < f_end do
    (match SL.binding_at a pm !i with
    | Some (pat, rhs, eq) -> handle_binding pat rhs a.(!i).Lexer.line eq
    | None -> ());
    if is_ident_at a !i then begin
      let name, line, ni = SL.qualified a !i in
      (match SL.last2 name with
      | "Sched.wait" | "Sched.wait_timeout" ->
        set_suspends ();
        let _sched, i1 = SL.parse_atom a pm ni in
        let ev, _ = SL.parse_atom a pm i1 in
        (match ev with
        | SL.AName s -> (
          match fact_of_name s with
          | VRemote (k, ((PCross _ | PField _) as p)) -> emit_xmod line k p
          | VParam idx -> ( match own with Some o -> Summary.add_wait_param o idx | None -> ())
          | _ -> ())
        | SL.AParen (Some h) -> (
          match head_fact h with
          | VRemote (k, ((PCross _ | PField _) as p)) -> emit_xmod line k p
          | _ -> ())
        | _ -> ())
      | "Condvar.wait" | "Condvar.wait_timeout" -> set_suspends ()
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
      (* field assignment [x.f <- <head>] *)
      (if (not (SL.is_simple name)) && ni + 1 < f_end && a.(ni).Lexer.text = "<"
          && a.(ni + 1).Lexer.text = "-" then begin
         let k = ref (ni + 2) in
         while !k < f_end && a.(!k).Lexer.text = "(" do
           incr k
         done;
         if is_ident_at a !k then begin
           let h, _, _ = SL.qualified a !k in
           match head_fact h with
           | VRemote (kk, _) -> set_field (SL.last_segment name) kk
           | _ -> ()
         end
       end);
      i := ni
    end
    else begin
      if a.(!i).Lexer.text = "{" then handle_record !i;
      incr i
    end
  done;
  (* return shape: the last line of the body (or everything after the
     [=] for one-liners) — lone known variable, literal tuple, or an
     application of a producer *)
  (match own with
  | Some o ->
    let e = f_end in
    let last_line = a.(e - 1).Lexer.line in
    let lo = ref (e - 1) in
    while !lo > f_body && a.(!lo - 1).Lexer.line = last_line do
      decr lo
    done;
    let start = if !lo <= f_body then f_body else !lo in
    let ret =
      if start >= e then []
      else if start = e - 1 && is_ident_at a start && SL.is_simple a.(start).Lexer.text then (
        match Hashtbl.find_opt env a.(start).Lexer.text with
        | Some (VRemote (k, _)) -> [ Some k ]
        | Some (VQuorum qc) ->
          qc.q_unknown <- true;
          []
        | _ -> [])
      else if a.(start).Lexer.text = "(" && pm.(start) = e - 1 then (
        match SL.tuple_components a pm start with
        | Some comps ->
          let facts =
            List.map
              (fun h ->
                match h with
                | Some h -> (
                  match head_fact h with VRemote (k, _) -> Some k | _ -> None)
                | None -> None)
              comps
          in
          if List.exists Option.is_some facts then facts else []
        | None -> [])
      else begin
        let k = ref start in
        while !k < e && not (is_ident_at a !k) do
          incr k
        done;
        if !k < e then (
          let h, _, _ = SL.qualified a !k in
          match head_fact h with VRemote (kk, _) -> [ Some kk ] | _ -> [])
        else []
      end
    in
    if ret <> [] then o.Summary.ret <- ret
  | None -> ());
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
      fields = Hashtbl.create 32;
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
          | Growth.Fun params ->
            let s =
              Summary.create ~qname:fn.Growth.g_qname ~file:fc.Growth.fc_path
                ~line:fn.Growth.g_line ~params
            in
            if not (Hashtbl.mem st.sums s.Summary.qname) then Hashtbl.add st.sums s.Summary.qname s;
            summaries := (fc, fn, s) :: !summaries
          | Growth.Value ->
            (* a named value [let x = ...] has its name just before the [=] *)
            let named = is_ident_at a (fn.Growth.g_body - 2) in
            (if named && not (Hashtbl.mem st.values fn.Growth.g_qname) then
               match value_fact a fn.Growth.g_body fn.Growth.g_e with
               | Some m -> Hashtbl.add st.values fn.Growth.g_qname (fc.Growth.fc_path, m)
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
  (* fixpoint: summaries and field facts feed each other across files *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    incr rounds;
    let before =
      List.map (fun (_, _, s) -> Summary.fingerprint s) summaries, Hashtbl.length st.fields
    in
    walk_all st ~emit:None;
    let after =
      List.map (fun (_, _, s) -> Summary.fingerprint s) summaries, Hashtbl.length st.fields
    in
    changed := before <> after
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
