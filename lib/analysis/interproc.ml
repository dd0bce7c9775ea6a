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
}

let is_ident_at (a : Lexer.token array) i = i < Array.length a && Lexer.is_ident a.(i).Lexer.text

(* an integer literal ([1_000] included); a token starting with anything
   else is none, and is not copied to find out *)
let int_of_token txt =
  match txt.[0] with
  | '0' .. '9' | '-' | '+' | '_' ->
    int_of_string_opt (String.concat "" (String.split_on_char '_' txt))
  | _ -> None
  | exception Invalid_argument _ -> None

(* the fact of a module-level value named [x] in module [mdl] *)
let local_value st ~mdl x =
  Option.bind (Growth.resolve st.p ~mdl x) (Hashtbl.find_opt st.values)

(* Canonical name of a mutex expression ({!SL.canon}; module-level
   mutexes are the [Module.x] ones). Unknowable locks (parameters,
   complex expressions) still count as "a lock is held" but join no
   order graph. *)
let canon_lock st (fc : Growth.file_ctx) = function
  | None -> "?"
  | Some raw ->
    let mdl = fc.Growth.fc_mdl in
    SL.canon ~mdl raw ~top:(fun x -> local_value st ~mdl x = Some MLock)

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
          if SL.last2_at a r hn = "Mutex.create" then Some MLock
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
       else if List.mem (SL.last2_at a !i ni) SL.iter_names then
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

(* A resolved call in a body: whom it calls, where, and the locks held
   there. Its fixpoint-dependent half (does the callee suspend, what it
   acquires) is read off the callee's summary when the facts settle. *)
type call = { callee : Summary.t; c_line : int; c_held : string list }

(* What one walk of a body leaves behind: its intra-function lock-order
   edges [(outer, inner, line)] and its resolved calls, both in token
   order. *)
type walked = {
  w_own : Summary.t option;
  w_path : string;
  w_nested : (string * string * int) list;
  w_calls : call list;
}

let held_names held =
  String.concat ", " (List.map (fun l -> if SL.canonical l then l else "a mutex") held)

let lock_across_call path line message =
  Finding.v ~rule:Finding.lock_across_call ~severity:Finding.Error
    ~loc:(Finding.File { file = path; line })
    message

(* One pass over a body. Everything it finds is final once the module
   values are known — its own summary's direct facts (suspends, the
   locks it takes), direct waits under a lock, quorum arity verdicts —
   except what its calls inherit from their callees, which it records. *)
let walk st (fc : Growth.file_ctx) (fn : Growth.fn) ~(own : Summary.t option)
    ~(emit : Finding.t -> unit) =
  let a = fc.Growth.fc_toks and pm = fc.Growth.fc_pm in
  let path = fc.Growth.fc_path and mdl = fc.Growth.fc_mdl in
  let f_body = fn.Growth.g_body and f_end = fn.Growth.g_e in
  let env : (string, vfact) Hashtbl.t = Hashtbl.create 16 in
  let quorums = ref [] in
  let calls = ref [] in
  let lregions =
    List.map (fun (m, s, e) -> (canon_lock st fc m, s, e)) (SL.lock_regions a pm f_body f_end)
  in
  let iregions = iter_regions fc fn in
  (match own with
  | Some o ->
    List.iter (fun (l, _, _) -> if SL.canonical l then Summary.add_acquire o l) lregions
  | None -> ());
  let held i = List.filter_map (fun (l, s, e) -> if s <= i && i <= e then Some l else None) lregions in
  (* intra-function nesting: acquiring B inside A's region orders A -> B *)
  let nested =
    List.concat_map
      (fun (lb, sb, _) ->
        List.filter_map
          (fun (la, sa, ea) -> if sa < sb && sb <= ea then Some (la, lb, a.(sb).Lexer.line) else None)
          lregions)
      lregions
  in
  (* a direct suspension point: the callee-less half of lock-across-call *)
  let suspend i line what =
    (match own with Some o -> o.Summary.suspends <- true | None -> ());
    match held i with
    | [] -> ()
    | held_here ->
      emit
        (lock_across_call path line
           (Printf.sprintf "%s while holding %s: %s" what (held_names held_here)
              (if String.starts_with ~prefix:"Condvar" what then
                 "Depfast.Condvar does not release the mutex, so this deadlocks or \
                  serialises every contender behind one slow firer"
               else
                 "a single slow firer blocks every coroutine contending on the lock (the \
                  RethinkDB hazard, paper §2)")))
  in
  (* value fact of a name in value position (variable, module value) *)
  let fact_of_name name =
    let of_mval = function Some (MInt v) -> VInt v | Some (MLen v) -> VList v | _ -> VNone in
    if SL.is_simple name then
      match Hashtbl.find_opt env name with
      | Some f -> f
      | None -> of_mval (local_value st ~mdl name)
    else if name.[0] >= 'A' && name.[0] <= 'Z' then of_mval (lookup st name 0)
    else VNone
  in
  (* value fact of an applied (or copied) head [h], resolved to [q]: a
     call yields nothing *)
  let head_fact q h =
    match q with Some q when Hashtbl.mem st.sums q -> VNone | _ -> fact_of_name h
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
  (* a resolvable call: recorded for the fixpoint when it can feed this
     function's summary or a lock finding, and a quorum passed as an
     argument escapes *)
  let handle_call callee line i ni =
    (match held i with
    | [] when own = None -> ()
    | held_here -> calls := { callee; c_line = line; c_held = held_here } :: !calls);
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
      (* the head token follows the [=] and its opening parentheses,
         found by the same scan as [SL.binding_at]'s *)
      let k = ref (eq + 1) in
      while a.(!k).Lexer.text = "(" do
        incr k
      done;
      let kn = SL.after a !k in
      if SL.last2_at a !k kn = "Event.quorum" then bind1 name (VQuorum (quorum_cell line kn))
      else bind1 name (head_fact (Growth.resolve_at st.p fc !k kn) h)
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
          | Some (Some h) -> bind1 name (head_fact (Growth.resolve st.p ~mdl h) h)
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
      let line = a.(!i).Lexer.line and ni = SL.after a !i in
      (match SL.last2_at a !i ni with
      | ( "Sched.wait" | "Sched.wait_timeout" | "Sched.hold" | "Condvar.wait"
        | "Condvar.wait_timeout" ) as w ->
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
        match Growth.resolve_at st.p fc !i ni with
        | Some q -> (
          match Hashtbl.find st.sums q with
          | callee -> handle_call callee line !i ni
          | exception Not_found -> ())
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
        emit
          (Finding.v ~rule:Finding.quorum_arity_mismatch ~severity:Finding.Error
             ~loc:(Finding.File { file = path; line = qc.q_line })
             (Printf.sprintf
                "quorum requires Count %d but only %d child event(s) statically flow into \
                 it: it can never fire (constants resolved across modules)"
                k qc.q_adds))
      | _ -> ())
    !quorums;
  { w_own = own; w_path = path; w_nested = nested; w_calls = List.rev !calls }

(* ---- the call-fact fixpoint ----------------------------------------- *)

(* Callee facts flow into callers' summaries until nothing changes. Facts
   only grow, over a finite set of names, so this terminates; a round
   reads the recorded calls only, never a body. *)
let rec settle walked =
  let changed = ref false in
  let rec flow (o : Summary.t) = function
    | [] -> ()
    | { callee; _ } :: calls ->
      let acquires = Summary.union o.acquires callee.acquires in
      if (callee.suspends && not o.suspends) || acquires != o.acquires then begin
        o.suspends <- o.suspends || callee.suspends;
        o.acquires <- acquires;
        changed := true
      end;
      flow o calls
  in
  List.iter (fun w -> match w.w_own with Some o -> flow o w.w_calls | None -> ()) walked;
  if !changed then settle walked

(* ---- the whole-project pass ----------------------------------------- *)

let analyze p =
  let st = { p; sums = Hashtbl.create 256; values = Hashtbl.create 64 } in
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
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  (* every body once: functions, then value bindings *)
  let walked =
    List.rev_map (fun (fc, fn, s) -> walk st fc fn ~own:(Some s) ~emit) !summaries
    @ List.rev_map (fun (fc, u) -> walk st fc u ~own:None ~emit) !units
  in
  settle walked;
  (* report from the settled facts, replaying the walks in order: the
     lock-order graph and its first witness per edge, and the calls made
     under a lock into a function that suspends *)
  let edge_locs = Hashtbl.create 16 in
  let lock_graph = Digraph.create () in
  let add_lock_edge path src dst line =
    if SL.canonical src && SL.canonical dst && src <> dst then begin
      if not (Hashtbl.mem edge_locs (src, dst)) then Hashtbl.replace edge_locs (src, dst) (path, line);
      Digraph.add_edge lock_graph ~src ~dst ~witness:(Printf.sprintf "%s:%d" path line)
    end
  in
  List.iter
    (fun w ->
      List.iter (fun (src, dst, line) -> add_lock_edge w.w_path src dst line) w.w_nested;
      List.iter
        (fun { callee; c_line = line; c_held = held } ->
          List.iter
            (fun h -> List.iter (fun acq -> add_lock_edge w.w_path h acq line) callee.Summary.acquires)
            held;
          if callee.Summary.suspends && held <> [] then
            emit
              (lock_across_call w.w_path line
                 (Printf.sprintf
                    "call to %s while holding %s: the callee (transitively) suspends on an \
                     event, so one slow firer blocks every contender on the lock (the \
                     RethinkDB hazard, paper §2, across a call boundary)"
                    callee.Summary.qname (held_names held))))
        w.w_calls)
    walked;
  (* lock-order cycles *)
  List.iter
    (fun (path, edges) ->
      match edges with
      | [] -> ()
      | first :: _ ->
        let loc =
          match Hashtbl.find_opt edge_locs (first.Digraph.src, first.Digraph.dst) with
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
    (Digraph.cycles lock_graph);
  Growth.allow p !findings
  |> List.sort_uniq (fun a b ->
         let c = Finding.by_location a b in
         if c <> 0 then c else compare a b)

let analyze_files paths = analyze (Growth.load_files paths)
