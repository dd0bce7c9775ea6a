module SL = Source_lint

(* ---- certificates ---------------------------------------------------- *)

type verdict = Bounded | Flagged

type cert = {
  c_rule : string;  (* the rule family this site was judged under *)
  c_kind : string;  (* queue | hashtbl | buffer | log | counter-window | cons | quorum-wait | retry *)
  c_file : string;
  c_line : int;
  c_site : string;  (* canonical container / window name, or the function *)
  c_verdict : verdict;
  c_evidence : string;  (* witness: what bounds it, or why it is flagged *)
}

let verdict_name = function Bounded -> "bounded" | Flagged -> "flagged"

let cert_to_json c =
  Printf.sprintf
    "{\"file\": \"%s\", \"line\": %d, \"site\": \"%s\", \"kind\": \"%s\", \"rule\": \
     \"%s\", \"verdict\": \"%s\", \"evidence\": \"%s\"}"
    (Finding.json_escape c.c_file) c.c_line (Finding.json_escape c.c_site)
    (Finding.json_escape c.c_kind) (Finding.json_escape c.c_rule)
    (verdict_name c.c_verdict)
    (Finding.json_escape c.c_evidence)

let by_site a b =
  let c = compare a.c_file b.c_file in
  if c <> 0 then c
  else
    let c = compare a.c_line b.c_line in
    if c <> 0 then c
    else
      let c = compare a.c_site b.c_site in
      if c <> 0 then c else compare a.c_kind b.c_kind

(* ---- project model --------------------------------------------------- *)

type shape = Fun of string list | Value | Other

type fn = {
  g_qname : string;  (* Module.name; "Module.<unit:L>" for anonymous items *)
  g_name : string;  (* the name as written, its token's; "" for anonymous items *)
  g_line : int;
  g_b : int;  (* first token of the item (the [let]/[and]) *)
  g_body : int;  (* first token after the binding's [=] *)
  g_e : int;  (* exclusive *)
  g_shape : shape;
}

type file_ctx = {
  fc_path : string;
  fc_mdl : string;
  fc_toks : Lexer.token array;
  fc_pm : int array;
  fc_pragmas : Lexer.pragma list;
  fc_fns : fn list;
  fc_stores : (string, unit) Hashtbl.t;  (* module-level containers *)
}

(* Module-level value facts: an int constant, a list literal's length,
   an alias of another name (chased for constants), or a mutex. *)
type value = MInt of int | MLen of int | MAlias of string | MLock

(* the call-edge, root and reachability closure, computed on first use *)
type closure = {
  calls : (string, string list) Hashtbl.t;  (* qname -> resolved callees *)
  roots : (string, string) Hashtbl.t;  (* root qname -> why it is a root *)
  reach : (string, (string, unit) Hashtbl.t) Hashtbl.t;  (* root -> reachable set *)
}

type project = {
  files : file_ctx list;
  defs : (string, file_ctx * fn) Hashtbl.t;  (* qname -> definition, first wins *)
  (* module -> the names it defines, each to [Some] of the defining
     qname (first wins) as [resolve] returns it, so that a lookup builds
     nothing *)
  scopes : (string, (string, string option) Hashtbl.t) Hashtbl.t;
  by_path : (string, file_ctx) Hashtbl.t;
  closure : closure Lazy.t;
  values : (string, value) Hashtbl.t Lazy.t;  (* "Module.x" -> fact, first wins *)
  growth : (Finding.t list * cert list) Lazy.t;
}

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* canonical name of a container/counter expression; module-level
   stores are the [Module.x] ones *)
let canon ctx raw = SL.canon ~mdl:ctx.fc_mdl ~top:(Hashtbl.mem ctx.fc_stores) raw

(* Skip one argument-shaped token group: a dotted name, a balanced
   ()/[]/{} group, or a single token. Labels are skipped transparently
   by the callers. *)
let skip_group (a : Lexer.token array) i =
  let n = Array.length a in
  match a.(i).Lexer.text with
  | "(" | "[" | "{" ->
    let depth = ref 0 in
    let j = ref i in
    let stop = ref (-1) in
    while !stop < 0 && !j < n do
      (match a.(!j).Lexer.text with
      | "(" | "[" | "{" -> incr depth
      | ")" | "]" | "}" ->
        decr depth;
        if !depth = 0 then stop := !j
      | _ -> ());
      incr j
    done;
    if !stop >= 0 then !stop + 1 else n
  | t when Lexer.is_ident t -> SL.after a i
  | _ -> i + 1

(* The first token of the [k]-th positional argument after token [i];
   [~label:] arguments are skipped. *)
let rec arg_at (a : Lexer.token array) i k =
  let n = Array.length a in
  if i >= n then None
  else if a.(i).Lexer.text = "~" && i + 2 < n && a.(i + 2).Lexer.text = ":" then
    arg_at a (skip_group a (i + 3)) k
  else if k = 0 then Some i
  else arg_at a (skip_group a i) (k - 1)

let nth_arg a i k =
  match arg_at a i k with
  | Some j when Lexer.is_ident a.(j).Lexer.text ->
    Some (a.(j).Lexer.dotted, j)
  | _ -> None

(* ---- parsing one file ------------------------------------------------ *)

let store_heads = [ "Queue.create"; "Hashtbl.create"; "Buffer.create"; "Rlog.create" ]

(* The shape of a binding whose pattern starts at token [j] of an item
   ending at [e], and the first token of its body: [let () = ...] and
   [let (a, b) = ...] and [let x = ...] are values; otherwise the
   positional parameters before the [=] make a function (labels are not
   positional; a [: ty] annotation runs to the [=]). *)
let item_shape (a : Lexer.token array) pm j e =
  if a.(j).Lexer.text = "(" && pm.(j) >= 0 && pm.(j) + 1 < e && a.(pm.(j) + 1).Lexer.text = "="
  then (Value, pm.(j) + 2)
  else if not (Lexer.is_ident a.(j).Lexer.text) then (Other, e)
  else if j + 1 < e && a.(j + 1).Lexer.text = "=" then (Value, j + 2)
  else begin
    let params = ref [] in
    let eq = ref (-1) in
    let k = ref (j + 1) in
    while !eq < 0 && !k < e do
      let t = a.(!k).Lexer.text in
      if t = "=" then eq := !k
      else if t = "(" then begin
        params := "_" :: !params;
        k := if pm.(!k) >= 0 then pm.(!k) + 1 else e
      end
      else if t = "~" || t = "?" then begin
        (* labeled parameter: skip [~x] or [~x:pat] *)
        k := !k + 2;
        if !k < e && a.(!k).Lexer.text = ":" then begin
          let _, k' = SL.parse_atom a pm (!k + 1) in
          k := k'
        end
      end
      else if t = ":" then begin
        while !k < e && a.(!k).Lexer.text <> "=" do
          incr k
        done;
        if !k < e then eq := !k
      end
      else begin
        if Lexer.is_ident t then params := t :: !params;
        incr k
      end
    done;
    if !eq >= 0 && !eq + 1 < e then (Fun (List.rev !params), !eq + 1) else (Other, e)
  end

(* Every [let] item, and every [and] item continuing one ([type ... and]
   items are not bindings), becomes a [fn]. *)
let parse_file (path, src) =
  let { Lexer.tokens = a; pragmas } = Lexer.scan src in
  let pm = SL.paren_matches a in
  let mdl = module_of_path path in
  let stores = Hashtbl.create 8 in
  let fns = ref [] in
  let binding = ref false in
  List.iter
    (fun (b, e) ->
      let kw = a.(b).Lexer.text in
      if kw <> "and" then binding := kw = "let";
      if !binding && e > b + 1 then begin
        let j = if a.(b + 1).Lexer.text = "rec" && b + 2 < e then b + 2 else b + 1 in
        let line = a.(b).Lexer.line in
        let shape, body = item_shape a pm j e in
        let name = a.(j).Lexer.text in
        let qname =
          if Lexer.is_ident name then begin
            (* module-level store? [let name = Queue.create ...] *)
            if
              shape = Value && body < e
              && Lexer.is_ident a.(body).Lexer.text
              && List.mem (SL.last2 a.(body).Lexer.dotted) store_heads
            then Hashtbl.replace stores name ();
            mdl ^ "." ^ name
          end
          else Printf.sprintf "%s.<unit:%d>" mdl line
        in
        fns :=
          {
            g_qname = qname;
            g_name = (if Lexer.is_ident name then name else "");
            g_line = line;
            g_b = b;
            g_body = body;
            g_e = e;
            g_shape = shape;
          }
          :: !fns
      end)
    (SL.spans a);
  {
    fc_path = path;
    fc_mdl = mdl;
    fc_toks = a;
    fc_pm = pm;
    fc_pragmas = pragmas;
    fc_fns = List.rev !fns;
    fc_stores = stores;
  }

(* ---- call edges and remote-triggered roots --------------------------- *)

(* Heads whose closure argument runs in a remote- or callback-triggered
   context: the RPC/net delivery path, a spawned coroutine (fed by
   remote traffic), or an event-completion callback. *)
let trigger_heads =
  [
    ("Rpc.serve", "RPC handler");
    ("Net.register", "net delivery handler");
    ("Sched.spawn", "spawned coroutine");
    ("Sched.spawn_here", "spawned coroutine");
    ("Node.spawn", "spawned coroutine");
    ("Event.on_fire", "completion callback");
    ("Event.on_abandon", "abandon callback");
  ]

let scoped p ~mdl name =
  match Hashtbl.find (Hashtbl.find p.scopes mdl) name with
  | q -> q
  | exception Not_found -> None

let resolve p ~mdl name =
  if SL.is_simple name then scoped p ~mdl name
  else
    let q = SL.last2 name in
    if Hashtbl.mem p.defs q then Some q else None

(* a dotted name resolves on its last two segments, each a token *)
let resolve_at p fc i ni =
  let a = fc.fc_toks in
  if ni = i + 1 then scoped p ~mdl:fc.fc_mdl a.(i).Lexer.text
  else scoped p ~mdl:a.(ni - 3).Lexer.text a.(ni - 1).Lexer.text

let close p =
  let c = { calls = Hashtbl.create 256; roots = Hashtbl.create 32; reach = Hashtbl.create 32 } in
  (* call edges: any resolvable name mentioned in a body is an edge —
     closures are treated as invoked, so a pump thunk stored in a record
     still connects its installer to the drain *)
  List.iter
    (fun fc ->
      let a = fc.fc_toks in
      List.iter
        (fun f ->
          let callees = ref [] in
          let i = ref f.g_b in
          while !i < f.g_e do
            if Lexer.is_ident a.(!i).Lexer.text then begin
              let ni = SL.after a !i in
              (match resolve_at p fc !i ni with
              | Some q when q <> f.g_qname -> callees := q :: !callees
              | _ -> ());
              i := ni
            end
            else incr i
          done;
          Hashtbl.replace c.calls f.g_qname (List.sort_uniq compare !callees))
        fc.fc_fns)
    p.files;
  (* roots: resolvable names inside the first [(fun ...)] closure
     following a trigger head ([~handler:(fun ...)], spawn thunks,
     completion callbacks) *)
  List.iter
    (fun fc ->
      let a = fc.fc_toks in
      let n = Array.length a in
      let i = ref 0 in
      while !i < n do
        if Lexer.is_ident a.(!i).Lexer.text then begin
          let ni = SL.after a !i in
          (match List.assoc_opt (SL.last2_at a !i ni) trigger_heads with
          | Some why ->
            (* find the first [(fun] within the next tokens *)
            let j = ref ni in
            let found = ref false in
            while (not !found) && !j < min n (ni + 100) do
              if
                a.(!j).Lexer.text = "("
                && !j + 1 < n
                && a.(!j + 1).Lexer.text = "fun"
                && fc.fc_pm.(!j) >= 0
              then begin
                found := true;
                let close = fc.fc_pm.(!j) in
                let k = ref (!j + 2) in
                while !k < close do
                  if Lexer.is_ident a.(!k).Lexer.text then begin
                    let kn = SL.after a !k in
                    (match resolve_at p fc !k kn with
                    | Some q -> if not (Hashtbl.mem c.roots q) then Hashtbl.add c.roots q why
                    | None -> ());
                    k := kn
                  end
                  else incr k
                done
              end
              else incr j
            done
          | None -> ());
          i := ni
        end
        else incr i
      done)
    p.files;
  (* reachability closure per root *)
  Hashtbl.iter
    (fun root _ ->
      let seen = Hashtbl.create 32 in
      let rec go q =
        if not (Hashtbl.mem seen q) then begin
          Hashtbl.add seen q ();
          match Hashtbl.find_opt c.calls q with
          | Some cs -> List.iter go cs
          | None -> ()
        end
      in
      go root;
      Hashtbl.replace c.reach root seen)
    c.roots;
  c

let files p = p.files
let callees p q = try Hashtbl.find (Lazy.force p.closure).calls q with Not_found -> []

let remote_reachable p qname =
  Hashtbl.fold (fun _ set acc -> acc || Hashtbl.mem set qname) (Lazy.force p.closure).reach false

(* roots whose reachable set contains [qname], with the reason *)
let roots_reaching p qname =
  let c = Lazy.force p.closure in
  Hashtbl.fold
    (fun root set acc -> if Hashtbl.mem set qname then (root, Hashtbl.find c.roots root) :: acc else acc)
    c.reach []
  |> List.sort compare

let allow p findings =
  List.map
    (fun (f : Finding.t) ->
      match f.Finding.loc with
      | Finding.File { file; line } -> (
        match Hashtbl.find_opt p.by_path file with
        | Some fc when Lexer.allows fc.fc_pragmas f.Finding.rule line ->
          { f with Finding.allowed = true }
        | _ -> f)
      | Finding.Node _ -> f)
    findings

let lint p = List.concat_map (fun fc -> SL.check_pragmas ~path:fc.fc_path fc.fc_pragmas) p.files

(* ---- module-level values --------------------------------------------- *)

(* an integer literal ([1_000] included); a token starting with anything
   else is none, and is not copied to find out *)
let int_of_token txt =
  match txt.[0] with
  | '0' .. '9' | '-' | '+' | '_' ->
    int_of_string_opt (String.concat "" (String.split_on_char '_' txt))
  | _ -> None
  | exception Invalid_argument _ -> None

(* Length of a list literal starting at a "[" token: its [;]-separated
   items, each one token group. String literals are consumed by the
   lexer, so a separator implies two items even when no item token
   survives. *)
let list_literal_length (a : Lexer.token array) i =
  let n = Array.length a in
  let rec items j semis some =
    if j >= n then None
    else
      match a.(j).Lexer.text with
      | "]" -> Some (if semis > 0 then semis + 1 else if some then 1 else 0)
      | ";" -> items (j + 1) (semis + 1) some
      | _ -> items (skip_group a j) semis true
  in
  if i < n && a.(i).Lexer.text = "[" then items (i + 1) 0 false else None

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
          let hn = SL.after a r in
          if SL.last2_at a r hn = "Mutex.create" then Some MLock
          else if
            (* a lone name is an alias worth chasing for constants *)
            hn >= e || a.(hn).Lexer.line <> a.(r).Lexer.line
          then Some (MAlias a.(r).Lexer.dotted)
          else None

(* every named value binding [let x = ...] (its name just before the
   [=]) with a fact *)
let module_values files =
  let values = Hashtbl.create 64 in
  List.iter
    (fun fc ->
      List.iter
        (fun f ->
          if
            f.g_shape = Value
            && Lexer.is_ident fc.fc_toks.(f.g_body - 2).Lexer.text
            && not (Hashtbl.mem values f.g_qname)
          then Option.iter (Hashtbl.add values f.g_qname) (value_fact fc.fc_toks f.g_body f.g_e))
        fc.fc_fns)
    files;
  values

(* The fact of a module-level value named as written in module [mdl]
   ([x], [M.x], [Lib.M.x]), aliases chased a few hops so a [Count] reads
   through a config module. *)
let value p ~mdl name =
  let values = Lazy.force p.values in
  let rec chase ~mdl name hops =
    match resolve p ~mdl name with
    | None -> None
    | Some q -> (
      match Hashtbl.find_opt values q with
      | Some (MAlias d) when hops > 0 -> chase ~mdl:(String.sub q 0 (String.index q '.')) d (hops - 1)
      | Some (MAlias _) -> None
      | found -> found)
  in
  chase ~mdl name 4

(* ---- wait sites ------------------------------------------------------- *)

type binding = Quorum of string | Or_ | And_

type wait = {
  w_line : int;
  w_head : string;
  w_event : SL.atom;
  w_binding : binding option;
  w_timered : bool;
  w_from : string option;
  w_part : int option;
}

type count = Const of int | Local of string * string

type quorum = {
  q_name : string;
  q_line : int;
  q_count : count option;
  q_adds : int option;
  q_escapes : bool;
  q_timered : bool;
}

let wait_heads =
  [ "Sched.wait"; "Sched.wait_timeout"; "Sched.hold"; "Condvar.wait"; "Condvar.wait_timeout" ]

let timerish h = List.mem (SL.last2 h) [ "Sched.timer"; "Event.timer_kind" ]

(* iteration heads whose closure body runs once per element *)
let iter_names = [ "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "Array.iter"; "Array.iteri" ]

(* words that can follow a call but are no argument of it *)
let keywords =
  [ "in"; "then"; "else"; "do"; "done"; "with"; "when"; "end"; "begin"; "let"; "and";
    "match"; "fun"; "function"; "if"; "of"; "to"; "downto"; "or"; "not" ]

(* Iteration regions [(start, end, length)] for inline-closure
   iterations, the length as the index of the token it starts at (a list
   literal or a name) and read at each [Event.add], so that list bindings
   made earlier in the same body are visible. [for]/[while] bodies get an
   unknown length, [-1]. *)
let iter_regions fc f =
  let a = fc.fc_toks and pm = fc.fc_pm in
  let regions = ref [] in
  let loop_stack = ref [] in
  let i = ref f.g_body in
  while !i < f.g_e do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name = a.(!i).Lexer.dotted and ni = SL.after a !i in
      (if name = "for" || name = "while" then loop_stack := !i :: !loop_stack
       else if name = "done" then
         match !loop_stack with
         | s :: rest ->
           regions := (s, !i, -1) :: !regions;
           loop_stack := rest
         | [] -> ()
       else if List.mem (SL.last2_at a !i ni) iter_names then
         if ni < f.g_e && a.(ni).Lexer.text = "(" && pm.(ni) >= 0 then
           let close = pm.(ni) in
           regions := (ni, close, if close + 1 < f.g_e then close + 1 else -1) :: !regions);
      i := ni
    end
    else incr i
  done;
  !regions

(* What a local name is bound to, as the scan reads it: the head of the
   call it was bound to (and the tuple component it took, if any), an
   int or list literal, or an event binding, with its record so far when
   it is an [Event.quorum]. *)
type local =
  | Head of string * int option
  | Literal of value
  | Event of binding * quorum option

(* the value a name stands for here: a local literal, a local copy of a
   module value, or a module value *)
let fact p ~mdl env name =
  match Hashtbl.find_opt env name with
  | Some (Literal v) -> Some v
  | Some (Head (h, None)) -> value p ~mdl h
  | Some _ -> None
  | None -> value p ~mdl name

(* The [Count] of a quorum binding whose [=] is at token [eq], before
   the binding's [in]: a literal, or a name (or the head of a
   parenthesised expression) that stands for a constant or a local bound
   to a call. *)
let count_at p fc f env eq =
  let a = fc.fc_toks in
  let limit = min f.g_e (eq + 60) in
  let rec find j =
    if j + 1 >= limit || a.(j).Lexer.text = "in" then None
    else if a.(j).Lexer.text <> "Count" then find (j + 1)
    else
      match SL.parse_atom a fc.fc_pm (j + 1) with
      | (SL.AName name | SL.AParen (Some name)), _ -> (
        match (fact p ~mdl:fc.fc_mdl env name, Hashtbl.find_opt env name) with
        | Some (MInt v), _ -> Some (Const v)
        | _, Some (Head (h, None)) -> Some (Local (name, h))
        | _ -> None)
      | _ -> Option.map (fun v -> Const v) (int_of_token a.(j + 1).Lexer.text)
  in
  find (eq + 1)

(* The weight of an [Event.add] at token [i]: the product of the lengths
   of the iteration [regions] around it; [None] when one is unknown. *)
let weight p fc env regions i =
  let a = fc.fc_toks in
  let length j =
    if j < 0 then None
    else if a.(j).Lexer.text = "[" then list_literal_length a j
    else
      match SL.parse_atom a fc.fc_pm j with
      | SL.AName s, _ -> (
        match fact p ~mdl:fc.fc_mdl env s with Some (MLen l) -> Some l | _ -> None)
      | _ -> None
  in
  List.fold_left
    (fun acc (s, e, len) ->
      if s <= i && i <= e then
        match (acc, length len) with Some w, Some l -> Some (w * l) | _ -> None
      else acc)
    (Some 1) regions

(* The atom at token [j], and the token past it: a quorum it names
   escapes. *)
let escape fc env j =
  let at, j' = SL.parse_atom fc.fc_toks fc.fc_pm j in
  (match at with
  | SL.AName s -> (
    match Hashtbl.find_opt env s with
    | Some (Event (b, Some q)) ->
      Hashtbl.replace env s (Event (b, Some { q with q_escapes = true }))
    | _ -> ())
  | _ -> ());
  j'

(* the arguments of a call from token [j] on, positional and labelled, up
   to the first that is no atom *)
let rec escape_args fc env n j pos =
  let a = fc.fc_toks in
  if j < n && pos < 8 then
    match a.(j).Lexer.text with
    | ("~" | "?") when j + 2 < n && a.(j + 2).Lexer.text = ":" ->
      escape_args fc env n (escape fc env (j + 3)) pos
    | "~" | "?" -> escape_args fc env n (j + 2) pos
    | _ ->
      if fst (SL.parse_atom a fc.fc_pm j) <> SL.AOther then
        escape_args fc env n (escape fc env j) (pos + 1)

(* One program-order scan per function: quorum/or_/and_ bindings, the
   timer escapes wired into quorums via [Event.add q ~child:(Sched.timer
   ...)], and which head (and tuple component) each local was bound to.
   Each [Event.quorum] binding also gets its [Count] source, the children
   [Event.add] wires into it (weighted by the iterations around each,
   which are only computed once a child is added) and whether it
   escapes, as an argument of a project function or as the function's
   result. Returns the waits, the quorums and the locals in scope at the
   end. *)
let scan_body ?(via = fun _ -> None) p fc f =
  let a = fc.fc_toks and pm = fc.fc_pm and n = f.g_e in
  let env = Hashtbl.create 8 in
  let quorums = ref [] in
  let has_quorum = ref false in
  let regions = ref None in
  let forget name =
    (match Hashtbl.find_opt env name with
    | Some (Event (_, Some q)) -> quorums := q :: !quorums
    | _ -> ());
    Hashtbl.remove env name
  in
  let out = ref [] in
  let wait line head ev =
    let local = match ev with SL.AName q -> Hashtbl.find_opt env q | _ -> None in
    let from, part =
      match (ev, local) with
      | SL.AParen h, _ -> (h, None)
      | _, Some (Head (h, k)) -> (Some h, k)
      | _ -> (None, None)
    in
    out :=
      {
        w_line = line;
        w_head = head;
        w_event = ev;
        w_binding = (match local with Some (Event (b, _)) -> Some b | _ -> None);
        w_timered = (match local with Some (Event (_, Some q)) -> q.q_timered | _ -> false);
        w_from = from;
        w_part = part;
      }
      :: !out
  in
  let i = ref f.g_b in
  while !i < n do
    (match SL.binding_at a pm !i with
    (* [let quorum, calls = Rpc.broadcast ...]: the first component is
       an [Event.quorum arity] built by the rpc layer *)
    | Some (SL.PTuple (q :: _), SL.RHead (Some h), _) when SL.last2 h = "Rpc.broadcast" ->
      forget q;
      Hashtbl.replace env q (Event (Quorum "Rpc.broadcast", None))
    | Some (SL.PTuple names, rhs, _) ->
      List.iteri
        (fun k name ->
          forget name;
          match rhs with
          | SL.RHead (Some h) -> Hashtbl.replace env name (Head (h, Some k))
          | SL.RTuple comps -> (
            match List.nth_opt comps k with
            | Some (Some h) -> Hashtbl.replace env name (Head (h, None))
            | _ -> ())
          | SL.RHead None -> ())
        names
    | Some (SL.PVar name, rhs, eq) -> (
      forget name;
      match rhs with
      | SL.RHead (Some h) -> (
        match SL.last2 h with
        | "Event.quorum" ->
          has_quorum := true;
          let q =
            {
              q_name = name;
              q_line = a.(!i).Lexer.line;
              q_count = count_at p fc f env eq;
              q_adds = Some 0;
              q_escapes = false;
              q_timered = false;
            }
          in
          Hashtbl.replace env name (Event (Quorum "Event.quorum", Some q))
        | "Event.or_" -> Hashtbl.replace env name (Event (Or_, None))
        | "Event.and_" -> Hashtbl.replace env name (Event (And_, None))
        | _ -> Hashtbl.replace env name (Head (h, None)))
      | SL.RHead None -> (
        (* local literals feed Count and iteration lengths *)
        match value_fact a (eq + 1) n with
        | Some v -> Hashtbl.replace env name (Literal v)
        | None -> ())
      | _ -> ())
    | _ -> ());
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name = a.(!i).Lexer.dotted and line = a.(!i).Lexer.line and ni = SL.after a !i in
      (match SL.last2 name with
      | "Event.add" -> (
        let parent, i1 = SL.parse_atom a pm ni in
        match parent with
        | SL.AName q -> (
          match Hashtbl.find_opt env q with
          | Some (Event (b, Some r)) ->
            let timer =
              i1 + 3 < n && a.(i1).Lexer.text = "~" && a.(i1 + 1).Lexer.text = "child"
              && a.(i1 + 2).Lexer.text = ":"
              &&
              match SL.parse_atom a pm (i1 + 3) with
              | (SL.AName h | SL.AParen (Some h)), _ -> timerish h
              | _ -> false
            in
            let adds =
              match r.q_adds with
              | Some k ->
                let rs =
                  match !regions with
                  | Some rs -> rs
                  | None ->
                    let rs = iter_regions fc f in
                    regions := Some rs;
                    rs
                in
                Option.map (( + ) k) (weight p fc env rs !i)
              | None -> None
            in
            Hashtbl.replace env q
              (Event (b, Some { r with q_adds = adds; q_timered = r.q_timered || timer }))
          | _ -> ())
        | _ -> ())
      | head when List.mem head wait_heads ->
        let _sched, i1 = SL.parse_atom a pm ni in
        wait line head (fst (SL.parse_atom a pm i1))
      | _ -> (
        (* a quorum handed to a project function escapes *)
        (if !has_quorum then
           match resolve_at p fc !i ni with
           | Some q -> (
             match Hashtbl.find p.defs q with
             | _, { g_shape = Fun _; _ } -> escape_args fc env n ni 0
             | _ -> ()
             | exception Not_found -> ())
           | None -> ());
        (* a call handing the event a callee waits on: judged here *)
        match Option.bind (via name) (arg_at a ni) with
        | Some j when j < n && a.(j).Lexer.line = line && not (List.mem a.(j).Lexer.text keywords)
          -> (
          match SL.parse_atom a pm j with
          | ((SL.AName _ | SL.AParen _) as ev), _ -> wait line name ev
          | _ -> ())
        | _ -> ()));
      i := ni
    end
    else incr i
  done;
  if !has_quorum then begin
    (* a quorum a function returns (its body's last line is the lone
       name) escapes: children may be added elsewhere *)
    (match f.g_shape with
    | Fun _ when n > f.g_body ->
      let last = n - 1 in
      if last = f.g_body || a.(last - 1).Lexer.line <> a.(last).Lexer.line then
        ignore (escape fc env last)
    | _ -> ());
    Hashtbl.iter
      (fun _ -> function Event (_, Some q) -> quorums := q :: !quorums | _ -> ())
      env
  end;
  (List.rev !out, !quorums, env)

let scan ?via p fc f =
  let ws, qs, _ = scan_body ?via p fc f in
  (ws, qs)

(* The last line of the body (everything after the [=] for a one-liner):
   a literal tuple gives one head per component, a lone local the head it
   was bound to, anything else its first name. *)
let returns p qname =
  match Hashtbl.find_opt p.defs qname with
  | None -> []
  | Some (fc, f) ->
    let a = fc.fc_toks and pm = fc.fc_pm and e = f.g_e in
    if f.g_body >= e then []
    else begin
      let last_line = a.(e - 1).Lexer.line in
      let lo = ref (e - 1) in
      while !lo > f.g_body && a.(!lo - 1).Lexer.line = last_line do
        decr lo
      done;
      let start = !lo in
      let t = a.(start).Lexer.text in
      if start = e - 1 && Lexer.is_ident t && SL.is_simple t then
        match Hashtbl.find_opt (let _, _, env = scan_body p fc f in env) t with
        | Some (Head (h, None)) -> [ Some h ]
        | _ -> []
      else
        match if t = "(" && pm.(start) = e - 1 then SL.tuple_components a pm start else None with
        | Some comps -> comps
        | None ->
          let k = ref start in
          while !k < e && not (Lexer.is_ident a.(!k).Lexer.text) do
            incr k
          done;
          if !k < e then [ Some a.(!k).Lexer.dotted ] else []
    end

(* ---- growth sites and bound evidence --------------------------------- *)

type site_kind = Queue | Hash | Buf | Log | Cons | Counter

let kind_name = function
  | Queue -> "queue"
  | Hash -> "hashtbl"
  | Buf -> "buffer"
  | Log -> "log"
  | Cons -> "cons"
  | Counter -> "counter-window"

(* (head, container argument position, kind) *)
let growth_ops =
  [
    ("Queue.add", (1, Queue));
    ("Queue.push", (1, Queue));
    ("Hashtbl.add", (0, Hash));
    ("Buffer.add_string", (0, Buf));
    ("Buffer.add_char", (0, Buf));
    ("Buffer.add_bytes", (0, Buf));
    ("Buffer.add_buffer", (0, Buf));
    ("Rlog.append", (0, Log));
  ]

let drain_ops =
  [
    ("Queue.pop", Queue);
    ("Queue.take", Queue);
    ("Queue.take_opt", Queue);
    ("Queue.clear", Queue);
    ("Queue.transfer", Queue);
    ("Hashtbl.remove", Hash);
    ("Hashtbl.reset", Hash);
    ("Hashtbl.clear", Hash);
    ("Buffer.clear", Buf);
    ("Buffer.reset", Buf);
    ("Rlog.truncate_from", Log);
  ]

let length_ops =
  [ ("Queue.length", Queue); ("Hashtbl.length", Hash); ("Buffer.length", Buf); ("Rlog.length", Log) ]

type site = {
  s_fn : string;
  s_file : string;
  s_line : int;
  s_container : string;
  s_kind : site_kind;
  s_op : string;
}

(* what bounds a container, and where *)
type evidence = {
  e_fn : string;
  e_line : int;
  e_container : string;
  e_kind : site_kind;  (* the container kind this evidence is valid for *)
  e_what : string;
}

type facts = { mutable sites : site list; mutable evidence : evidence list }

(* Does a comparison operator neighbour token [i] (the first token of a
   container/counter mention ending at [j])? [<-] and [->] are not
   comparisons. *)
let near_comparison (a : Lexer.token array) i j =
  let n = Array.length a in
  let is_cmp k =
    k >= 0 && k < n
    &&
    match a.(k).Lexer.text with
    | "<" -> not (k + 1 < n && a.(k + 1).Lexer.text = "-")
    | ">" -> not (k > 0 && a.(k - 1).Lexer.text = "-")
    | _ -> false
  in
  is_cmp j
  || (j + 1 < n && a.(j).Lexer.text = "=" && is_cmp (j + 1))
  || is_cmp (i - 1)
  || (i - 1 >= 0 && a.(i - 1).Lexer.text = "=" && is_cmp (i - 2))

let scan_fn fc (f : fn) (facts : facts) =
  let a = fc.fc_toks in
  let n = f.g_e in
  let add_site line container kind op =
    if SL.canonical container then
      facts.sites <-
        {
          s_fn = f.g_qname;
          s_file = fc.fc_path;
          s_line = line;
          s_container = container;
          s_kind = kind;
          s_op = op;
        }
        :: facts.sites
  in
  let add_ev line container kind what =
    if SL.canonical container then
      facts.evidence <-
        { e_fn = f.g_qname; e_line = line; e_container = container; e_kind = kind; e_what = what }
        :: facts.evidence
  in
  let i = ref f.g_b in
  while !i < n do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name = a.(!i).Lexer.dotted and line = a.(!i).Lexer.line and ni = SL.after a !i in
      let l2 = SL.last2 name in
      (* container operations *)
      (match List.assoc_opt l2 growth_ops with
      | Some (argpos, kind) -> (
        match nth_arg a ni argpos with
        | Some (arg, _) -> add_site line (canon fc arg) kind l2
        | None -> ())
      | None -> ());
      (match List.assoc_opt l2 drain_ops with
      | Some kind -> (
        match nth_arg a ni 0 with
        | Some (arg, _) ->
          add_ev line (canon fc arg) kind (Printf.sprintf "drained via %s at line %d" l2 line)
        | None -> ())
      | None -> ());
      (match List.assoc_opt l2 length_ops with
      | Some kind -> (
        match nth_arg a ni 0 with
        | Some (arg, _) ->
          if near_comparison a (!i) ni then
            add_ev line (canon fc arg) kind
              (Printf.sprintf "capacity check on %s at line %d" l2 line)
        | None -> ())
      | None -> ());
      (* assignment forms: counter windows, list-cons accumulators,
         resets. [x.f <- x.f + 1] grows a window; [x.f <- x.f - 1] and a
         comparison on [x.f] bound it; [x.f <- e :: x.f] grows a list;
         any other [x.f <- rhs] is a reset (evidence for cons only). *)
      if ni + 1 < n && a.(ni).Lexer.text = "<" && a.(ni + 1).Lexer.text = "-" then begin
        let field = SL.last_segment name in
        let c = canon fc name in
        let rhs = ni + 2 in
        let handled = ref false in
        if rhs < n && Lexer.is_ident a.(rhs).Lexer.text then begin
          let rname = a.(rhs).Lexer.dotted and rn = SL.after a rhs in
          if SL.last_segment rname = field && rn < n then
            match a.(rn).Lexer.text with
            | "+" ->
              handled := true;
              add_site line c Counter "increment"
            | "-" ->
              handled := true;
              add_ev line c Counter (Printf.sprintf "decremented at line %d" line)
            | _ -> ()
        end;
        if not !handled then begin
          (* cons onto self before the statement ends? *)
          let stop = min n (rhs + 60) in
          let k = ref rhs in
          let found_cons = ref false in
          while (not !found_cons) && !k + 2 < stop do
            if
              a.(!k).Lexer.text = ":"
              && a.(!k + 1).Lexer.text = ":"
              && Lexer.is_ident a.(!k + 2).Lexer.text
              && SL.last_segment a.(!k + 2).Lexer.dotted = field
            then found_cons := true;
            incr k
          done;
          if !found_cons then add_site line c Cons "cons"
          else add_ev line c Cons (Printf.sprintf "reset/reassigned at line %d" line)
        end
      end;
      (* a comparison adjacent to a mention bounds a counter window *)
      if near_comparison a !i ni then
        add_ev line (canon fc name) Counter
          (Printf.sprintf "compared against a capacity at line %d" line);
      i := ni
    end
    else incr i
  done

(* ---- the growth analysis --------------------------------------------- *)

let growth_analysis p =
  let reach = (Lazy.force p.closure).reach in
  let facts = { sites = []; evidence = [] } in
  List.iter (fun fc -> List.iter (fun f -> scan_fn fc f facts) fc.fc_fns) p.files;
  (* index evidence by (function, container, kind) for component lookup *)
  let ev_by_fn = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.add ev_by_fn (e.e_fn, e.e_container, e.e_kind) e) facts.evidence;
  let component_evidence root site =
    match Hashtbl.find_opt reach root with
    | None -> None
    | Some set ->
      (* deterministic witness: the least (function, line) match, so
         reported evidence cannot depend on hash-table iteration order *)
      Hashtbl.fold
        (fun q () acc ->
          let cand = Hashtbl.find_opt ev_by_fn (q, site.s_container, site.s_kind) in
          match (acc, cand) with
          | None, c -> c
          | Some _, None -> acc
          | Some a, Some c -> if (c.e_fn, c.e_line) < (a.e_fn, a.e_line) then cand else acc)
        set None
  in
  let findings = ref [] in
  let certs = ref [] in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let key = (s.s_file, s.s_line, s.s_container) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        match roots_reaching p s.s_fn with
        | [] -> ()  (* not remote-triggered: out of scope *)
        | roots -> (
          (* a site is unbounded if SOME remote-triggered component
             reaches it with no drain/capacity evidence: backpressure
             must live on the producing path, not in a sibling loop *)
          let naked =
            List.find_opt (fun (root, _) -> component_evidence root s = None) roots
          in
          match naked with
          | None ->
            let root = fst (List.hd roots) in
            let ev = Option.get (component_evidence root s) in
            certs :=
              {
                c_rule = Finding.unbounded_growth;
                c_kind = kind_name s.s_kind;
                c_file = s.s_file;
                c_line = s.s_line;
                c_site = s.s_container;
                c_verdict = Bounded;
                c_evidence = Printf.sprintf "%s (in %s)" ev.e_what ev.e_fn;
              }
              :: !certs
          | Some (root, why) ->
            if s.s_kind = Counter then ()
              (* a bare counter consumes no memory; without a cap
                 comparison it is simply not a window — stay silent *)
            else begin
              findings :=
                Finding.v ~rule:Finding.unbounded_growth ~severity:Finding.Error
                  ~loc:(Finding.File { file = s.s_file; line = s.s_line })
                  (Printf.sprintf
                     "%s grows %s on a path from %s (%s) with no drain, truncation, or \
                      capacity check in that component: a slow consumer lets it grow \
                      without bound (the paper's RethinkDB backlog, §2)"
                     s.s_op s.s_container root why)
                :: !findings;
              certs :=
                {
                  c_rule = Finding.unbounded_growth;
                  c_kind = kind_name s.s_kind;
                  c_file = s.s_file;
                  c_line = s.s_line;
                  c_site = s.s_container;
                  c_verdict = Flagged;
                  c_evidence =
                    Printf.sprintf "no drain or capacity check reachable from %s" root;
                }
                :: !certs
            end)
      end)
    (List.rev facts.sites);
  (!findings, !certs)

let load sources =
  let files = List.map parse_file sources in
  let defs = Hashtbl.create 256 in
  let scopes = Hashtbl.create 64 in
  let by_path = Hashtbl.create 64 in
  List.iter
    (fun fc ->
      Hashtbl.replace by_path fc.fc_path fc;
      let scope =
        match Hashtbl.find_opt scopes fc.fc_mdl with
        | Some s -> s
        | None ->
          let s = Hashtbl.create 32 in
          Hashtbl.add scopes fc.fc_mdl s;
          s
      in
      List.iter
        (fun f ->
          if not (Hashtbl.mem defs f.g_qname) then begin
            Hashtbl.add defs f.g_qname (fc, f);
            if f.g_name <> "" then Hashtbl.add scope f.g_name (Some f.g_qname)
          end)
        fc.fc_fns)
    files;
  let rec p =
    {
      files;
      defs;
      scopes;
      by_path;
      closure = lazy (close p);
      values = lazy (module_values files);
      growth = lazy (growth_analysis p);
    }
  in
  p

let load_files paths = load (List.map (fun path -> (path, SL.read_source path)) paths)
let analyze p = Lazy.force p.growth
