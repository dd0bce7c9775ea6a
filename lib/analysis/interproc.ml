module SL = Source_lint

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

(* Canonical name of a mutex expression ({!SL.canon}; module-level
   mutexes are the [Module.x] ones). Unknowable locks (parameters,
   complex expressions) still count as "a lock is held" but join no
   order graph. *)
let canon_lock p (fc : Growth.file_ctx) = function
  | None -> "?"
  | Some raw ->
    let mdl = fc.Growth.fc_mdl in
    SL.canon ~mdl raw ~top:(fun x -> Growth.value p ~mdl x = Some Growth.MLock)

(* ---- per-function summaries ----------------------------------------- *)

(* The facts a function's callers inherit, settled over the whole
   project: it (transitively) suspends on an event, and the canonical
   mutexes it may acquire, its callees' included (a sorted set). *)
type summary = { qname : string; mutable suspends : bool; mutable acquires : string list }

(* Sorted-set union; the first list itself when the second adds nothing,
   so the fixpoint sees a change as physical inequality *)
let rec union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c > 0 then y :: union a ys
    else
      let r = union xs (if c = 0 then ys else b) in
      if r == xs then a else x :: r

(* ---- the per-function walk ------------------------------------------ *)

(* A resolved call in a body: whom it calls, where, and the locks held
   there. Its fixpoint-dependent half (does the callee suspend, what it
   acquires) is read off the callee's summary when the facts settle. *)
type call = { callee : summary; c_line : int; c_held : string list }

(* What one walk of a body leaves behind: its intra-function lock-order
   edges [(outer, inner, line)] and its resolved calls, both in token
   order. *)
type walked = {
  w_own : summary option;
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

(* One pass over a body. Everything it finds is final — its own
   summary's direct facts (suspends, the locks it takes) and direct waits
   under a lock — except what its calls inherit from their callees, which
   it records. *)
let walk p sums (fc : Growth.file_ctx) (fn : Growth.fn) ~(own : summary option)
    ~(emit : Finding.t -> unit) =
  let a = fc.Growth.fc_toks and pm = fc.Growth.fc_pm in
  let path = fc.Growth.fc_path in
  let f_body = fn.Growth.g_body and f_end = fn.Growth.g_e in
  let calls = ref [] in
  let lregions =
    List.map (fun (m, s, e) -> (canon_lock p fc m, s, e)) (SL.lock_regions a pm f_body f_end)
  in
  (match own with
  | Some o ->
    List.iter
      (fun (l, _, _) -> if SL.canonical l then o.acquires <- union o.acquires [ l ])
      lregions
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
    (match own with Some o -> o.suspends <- true | None -> ());
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
  (* ---- linear scan in program order ---- *)
  let i = ref f_body in
  while !i < f_end do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let line = a.(!i).Lexer.line and ni = SL.after a !i in
      (match SL.last2_at a !i ni with
      | w when List.mem w Growth.wait_heads -> suspend !i line w
      | "Mutex.lock" | "Mutex.unlock" | "Mutex.with_lock" -> ()
      | _ -> (
        (* a resolvable call: recorded for the fixpoint when it can feed
           this function's summary or a lock finding *)
        match Growth.resolve_at p fc !i ni with
        | Some q -> (
          match (Hashtbl.find sums q, held !i) with
          | _, [] when own = None -> ()
          | callee, held_here -> calls := { callee; c_line = line; c_held = held_here } :: !calls
          | exception Not_found -> ())
        | None -> ()));
      i := ni
    end
    else incr i
  done;
  { w_own = own; w_path = path; w_nested = nested; w_calls = List.rev !calls }

(* ---- the call-fact fixpoint ----------------------------------------- *)

(* Callee facts flow into callers' summaries until nothing changes. Facts
   only grow, over a finite set of names, so this terminates; a round
   reads the recorded calls only, never a body. *)
let rec settle walked =
  let changed = ref false in
  let rec flow o = function
    | [] -> ()
    | { callee; _ } :: calls ->
      let acquires = union o.acquires callee.acquires in
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
  let sums = Hashtbl.create 256 in  (* function qname -> summary, first wins *)
  (* functions get summaries; value bindings are walked for findings *)
  let summaries = ref [] and units = ref [] in
  List.iter
    (fun (fc : Growth.file_ctx) ->
      List.iter
        (fun (fn : Growth.fn) ->
          match fn.Growth.g_shape with
          | Growth.Fun _ ->
            let s = { qname = fn.Growth.g_qname; suspends = false; acquires = [] } in
            if not (Hashtbl.mem sums s.qname) then Hashtbl.add sums s.qname s;
            summaries := (fc, fn, s) :: !summaries
          | Growth.Value -> units := (fc, fn) :: !units
          | Growth.Other -> ())
        fc.Growth.fc_fns)
    (Growth.files p);
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  (* every body once: functions, then value bindings *)
  let walked =
    List.rev_map (fun (fc, fn, s) -> walk p sums fc fn ~own:(Some s) ~emit) !summaries
    @ List.rev_map (fun (fc, u) -> walk p sums fc u ~own:None ~emit) !units
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
            (fun h -> List.iter (fun acq -> add_lock_edge w.w_path h acq line) callee.acquires)
            held;
          if callee.suspends && held <> [] then
            emit
              (lock_across_call w.w_path line
                 (Printf.sprintf
                    "call to %s while holding %s: the callee (transitively) suspends on an \
                     event, so one slow firer blocks every contender on the lock (the \
                     RethinkDB hazard, paper §2, across a call boundary)"
                    callee.qname (held_names held))))
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
