type kind = Rpc | Disk

(* Qualified names (matched on their last two segments) that construct a
   remote completion event. [Disk.write]/[Disk.fsync] are deliberately
   absent: a wait on one's own WAL durability is protocol-inherent,
   whereas a blocking [Disk.read] on the request path is the TiDB
   anti-pattern the paper describes (§2). *)
let builtin_producers =
  [
    ("Event.rpc_completion", Rpc);
    ("Rpc.event", Rpc);
    ("Event.disk_completion", Disk);
    ("Disk.read", Disk);
  ]

(* Heads that construct a local or compound event: binding one of these
   over a name cancels any earlier remote-completion fact about it. *)
let local_constructors =
  [ "Event.quorum"; "Event.or_"; "Event.signal"; "Event.timer_kind"; "Sched.timer" ]

let iter_names =
  [ "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "Array.iter"; "Array.iteri" ]

let kind_name = function Rpc -> "rpc" | Disk -> "disk"

let last2 name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some j -> (
    match String.rindex_from_opt name (j - 1) '.' with
    | None -> name
    | Some k -> String.sub name (k + 1) (String.length name - k - 1))

let is_simple name = not (String.contains name '.')

let last_segment name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some j -> String.sub name (j + 1) (String.length name - j - 1)

(* Canonical name of a cell or mutex mention written in module [mdl]:
   [Module.x] for a module-level one ([top x]), [.field] for record
   fields (same-named fields merge across types — an accepted
   over-approximation), ["?"]-prefixed when identity is unknowable
   (locals, parameters). *)
let canon ~mdl ~top raw =
  if is_simple raw then if top raw then mdl ^ "." ^ raw else "?" ^ raw
  else if raw.[0] >= 'A' && raw.[0] <= 'Z' then last2 raw
  else "." ^ last_segment raw

let canonical s = s <> "" && s.[0] <> '?'

(* ---- token-stream helpers ------------------------------------------- *)

let qualified (a : Lexer.token array) i =
  let n = Array.length a in
  let buf = Buffer.create 24 in
  Buffer.add_string buf a.(i).Lexer.text;
  let j = ref (i + 1) in
  let continue = ref true in
  while !continue do
    if !j + 1 < n && a.(!j).Lexer.text = "." && Lexer.is_ident a.(!j + 1).Lexer.text then begin
      Buffer.add_char buf '.';
      Buffer.add_string buf a.(!j + 1).Lexer.text;
      j := !j + 2
    end
    else continue := false
  done;
  (Buffer.contents buf, a.(i).Lexer.line, !j)

type atom = AName of string | AParen of string option | AOther

(* [parse_atom a pm i] consumes one argument-shaped expression starting
   at token [i]: a (possibly dotted) name, or a parenthesised expression
   whose first inner name is taken as its head. *)
let parse_atom (a : Lexer.token array) (pm : int array) i =
  let n = Array.length a in
  if i >= n then (AOther, i)
  else if a.(i).Lexer.text = "(" then begin
    let close = if pm.(i) >= 0 then pm.(i) else n - 1 in
    let j = ref (i + 1) in
    while !j < close && a.(!j).Lexer.text = "(" do
      incr j
    done;
    let head =
      if !j < close && Lexer.is_ident a.(!j).Lexer.text then
        let name, _, _ = qualified a !j in
        Some name
      else None
    in
    (AParen head, close + 1)
  end
  else if Lexer.is_ident a.(i).Lexer.text then begin
    let name, _, next = qualified a i in
    (AName name, next)
  end
  else (AOther, i + 1)

let paren_matches (a : Lexer.token array) =
  let n = Array.length a in
  let pm = Array.make n (-1) in
  let stack = ref [] in
  for i = 0 to n - 1 do
    match a.(i).Lexer.text with
    | "(" -> stack := i :: !stack
    | ")" -> (
      match !stack with
      | o :: rest ->
        pm.(o) <- i;
        stack := rest
      | [] -> ())
    | _ -> ()
  done;
  pm

let boundary_keywords = [ "let"; "module"; "open"; "type"; "exception"; "include"; "and"; "end" ]

let boundaries (a : Lexer.token array) =
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      if t.Lexer.col = 0 && List.mem t.Lexer.text boundary_keywords then out := i :: !out)
    a;
  List.rev !out

(* Top-level items as [(first token, end)] spans, end exclusive: each
   runs from one boundary to the next. *)
let spans (a : Lexer.token array) =
  let rec pairs = function
    | b :: (b2 :: _ as rest) -> (b, b2) :: pairs rest
    | [ b ] -> [ (b, Array.length a) ]
    | [] -> []
  in
  pairs (boundaries a)

let read_source path = In_channel.with_open_bin path In_channel.input_all

(* Mark the findings a pragma allows; [pragmas_of] maps a finding's file
   to that file's pragmas. *)
let allow_pragmas pragmas_of findings =
  List.map
    (fun (f : Finding.t) ->
      match f.Finding.loc with
      | Finding.File { file; line } when Lexer.allows (pragmas_of file) f.Finding.rule line ->
        { f with Finding.allowed = true }
      | _ -> f)
    findings

(* ---- per-file environment ------------------------------------------- *)

type env = {
  remote : (string, kind) Hashtbl.t;  (* vars bound to a bare remote completion *)
  producers : (string, kind option list) Hashtbl.t;
      (* local fns returning one: a 1-element list for a scalar return,
         one slot per component for a tuple return *)
}

let scalar = function [ Some k ] -> Some k | _ -> None

(* Component facts of a right-hand-side head: builtin producers are
   scalar by definition; local names resolve through either table. *)
let components_of_head env h =
  if is_simple h then
    match Hashtbl.find_opt env.producers h with
    | Some l -> Some l
    | None -> (
      match Hashtbl.find_opt env.remote h with Some k -> Some [ Some k ] | None -> None)
  else
    match List.assoc_opt (last2 h) builtin_producers with
    | Some k -> Some [ Some k ]
    | None -> None

let resolve_head env h = Option.bind (components_of_head env h) (fun l -> scalar l)

(* Split the parenthesised region (s, pm.(s)) at depth-0 commas and
   return the head name of each component — the shape of a literal
   tuple expression. [None] if there is no depth-0 comma. *)
let tuple_components (a : Lexer.token array) pm s =
  if s >= Array.length a || a.(s).Lexer.text <> "(" || pm.(s) < 0 then None
  else begin
    let close = pm.(s) in
    let depth = ref 0 in
    let comps = ref [] in
    let head = ref None in
    let ncommas = ref 0 in
    let i = ref (s + 1) in
    while !i < close do
      let t = a.(!i).Lexer.text in
      (match t with
      | "(" | "[" | "{" -> incr depth
      | ")" | "]" | "}" -> decr depth
      | "," when !depth = 0 ->
        incr ncommas;
        comps := !head :: !comps;
        head := None
      | _ ->
        if !head = None && Lexer.is_ident t then begin
          let name, _, _ = qualified a !i in
          head := Some name
        end);
      incr i
    done;
    if !ncommas = 0 then None
    else begin
      comps := !head :: !comps;
      Some (List.rev !comps)
    end
  end

type pattern = PVar of string | PTuple of string list
type rhs = RHead of string option | RTuple of string option list

(* A binding [let <pat> = <rhs>] at token [i], where <pat> is a plain
   variable or a flat tuple of simple names (optionally parenthesised):
   returns the pattern, the right-hand-side shape (a head name, or per-
   component heads for a literal tuple) and the index of the [=]. *)
let binding_at (a : Lexer.token array) pm i =
  let n = Array.length a in
  if a.(i).Lexer.text <> "let" then None
  else
    let j = if i + 1 < n && a.(i + 1).Lexer.text = "rec" then i + 2 else i + 1 in
    (* a comma-separated run of simple names over [j0, close) *)
    let names_upto j0 close =
      let rec go acc k expect_name =
        if k = close then if expect_name then None else Some (List.rev acc)
        else if expect_name then
          if Lexer.is_ident a.(k).Lexer.text then go (a.(k).Lexer.text :: acc) (k + 1) false
          else None
        else if a.(k).Lexer.text = "," then go acc (k + 1) true
        else None
      in
      go [] j0 true
    in
    let pat =
      if j >= n then None
      else if a.(j).Lexer.text = "(" && pm.(j) >= 0 && pm.(j) + 1 < n
              && a.(pm.(j) + 1).Lexer.text = "=" then
        match names_upto (j + 1) pm.(j) with
        | Some [ x ] -> Some (PVar x, pm.(j) + 1)
        | Some (_ :: _ :: _ as xs) -> Some (PTuple xs, pm.(j) + 1)
        | _ -> None
      else if Lexer.is_ident a.(j).Lexer.text then
        if j + 1 < n && a.(j + 1).Lexer.text = "=" then Some (PVar a.(j).Lexer.text, j + 1)
        else if j + 1 < n && a.(j + 1).Lexer.text = "," then begin
          (* scan forward for the [=] closing the pattern *)
          let k = ref (j + 1) in
          while !k < n && (a.(!k).Lexer.text = "," || Lexer.is_ident a.(!k).Lexer.text) do
            incr k
          done;
          if !k < n && a.(!k).Lexer.text = "=" then
            match names_upto j !k with
            | Some (_ :: _ :: _ as xs) -> Some (PTuple xs, !k)
            | _ -> None
          else None
        end
        else None
      else None
    in
    match pat with
    | None -> None
    | Some (pat, eq) ->
      let rhs =
        match tuple_components a pm (eq + 1) with
        | Some comps -> RTuple comps
        | None ->
          let k = ref (eq + 1) in
          while !k < n && a.(!k).Lexer.text = "(" do
            incr k
          done;
          RHead
            (if !k < n && Lexer.is_ident a.(!k).Lexer.text then
               let name, _, _ = qualified a !k in
               Some name
             else None)
      in
      Some (pat, rhs, eq)

let record_binding1 env ~and_line name head line =
  Hashtbl.remove env.remote name;
  Hashtbl.remove and_line name;
  match head with
  | None -> ()
  | Some h -> (
    let l2 = last2 h in
    match List.assoc_opt l2 builtin_producers with
    | Some k -> Hashtbl.replace env.remote name k
    | None ->
      if is_simple h then (
        match Hashtbl.find_opt env.producers h with
        | Some l -> ( match scalar l with Some k -> Hashtbl.replace env.remote name k | None -> ())
        | None -> ())
      else if l2 = "Event.and_" then Hashtbl.replace and_line name line
      else if List.mem l2 local_constructors then ())

(* Assign facts under a binding: positional for tuple patterns, whether
   the right-hand side is a literal tuple or a call to a local function
   whose tuple return shape was learnt. *)
let record_binding env ~and_line pat rhs line =
  let comp_fact head = Option.bind head (fun h -> resolve_head env h) in
  match (pat, rhs) with
  | PVar name, RHead head -> record_binding1 env ~and_line name head line
  | PVar name, RTuple _ ->
    (* a literal tuple is not itself an event *)
    Hashtbl.remove env.remote name;
    Hashtbl.remove and_line name
  | PTuple names, RTuple comps ->
    List.iteri
      (fun i name ->
        Hashtbl.remove env.remote name;
        Hashtbl.remove and_line name;
        match List.nth_opt comps i with
        | Some head -> (
          match comp_fact head with
          | Some k -> Hashtbl.replace env.remote name k
          | None -> ())
        | None -> ())
      names
  | PTuple names, RHead head ->
    let comps =
      match head with
      | Some h when is_simple h -> (
        match Hashtbl.find_opt env.producers h with Some l -> l | None -> [])
      | _ -> []
    in
    List.iteri
      (fun i name ->
        Hashtbl.remove env.remote name;
        Hashtbl.remove and_line name;
        match List.nth_opt comps i with
        | Some (Some k) -> Hashtbl.replace env.remote name k
        | _ -> ())
      names

(* Learn which top-level functions return a remote completion: the
   binding's last line is either a lone variable known to be remote, an
   application of a producer, or a literal tuple whose components are
   learnt positionally. Iterated with the binding pass so producer
   facts and variable facts can feed each other. *)
let learn_producers (a : Lexer.token array) pm items env =
  List.iter
    (fun (b, e) ->
      if a.(b).Lexer.text = "let" && e > b + 1 then begin
        let j = if a.(b + 1).Lexer.text = "rec" && b + 2 < e then b + 2 else b + 1 in
        if j < e && Lexer.is_ident a.(j).Lexer.text then begin
          let fname = a.(j).Lexer.text in
          let last_line = a.(e - 1).Lexer.line in
          let lo = ref (e - 1) in
          while !lo > b && a.(!lo - 1).Lexer.line = last_line do
            decr lo
          done;
          (* for one-line bindings, start after the [=] *)
          let start =
            if !lo <= j then begin
              let k = ref j in
              while !k < e && a.(!k).Lexer.text <> "=" do
                incr k
              done;
              !k + 1
            end
            else !lo
          in
          if start < e then begin
            let learned =
              if start = e - 1 && Lexer.is_ident a.(start).Lexer.text
                 && is_simple a.(start).Lexer.text then
                match Hashtbl.find_opt env.remote a.(start).Lexer.text with
                | Some k -> Some [ Some k ]
                | None -> None
              else
                match
                  if a.(start).Lexer.text = "(" && pm.(start) = e - 1 then
                    tuple_components a pm start
                  else None
                with
                | Some comps ->
                  let facts = List.map (fun h -> Option.bind h (resolve_head env)) comps in
                  if List.exists Option.is_some facts then Some facts else None
                | None -> begin
                  let k = ref start in
                  while !k < e && not (Lexer.is_ident a.(!k).Lexer.text) do
                    incr k
                  done;
                  if !k < e then
                    let h, _, _ = qualified a !k in
                    components_of_head env h
                  else None
                end
            in
            match learned with
            | Some l -> Hashtbl.replace env.producers fname l
            | None -> ()
          end
        end
      end)
    items

(* ---- locked / iterating regions ------------------------------------- *)

(* The Mutex regions among tokens [lo, hi): a [with_lock sched mu
   (fun ...)] body, a [with_lock sched mu @@ fun ...] tail up to
   [hi - 1], and a [lock sched mu] .. [unlock mu] span (an unclosed one
   runs to [hi - 1]); each with its mutex when that is a plain name. *)
let lock_regions (a : Lexer.token array) pm lo hi =
  let regions = ref [] in
  let open_locks = ref [] in
  let mutex = function AName s -> Some s | _ -> None in
  let i = ref lo in
  while !i < hi do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name, _, ni = qualified a !i in
      (match last2 name with
      | "Mutex.with_lock" ->
        let _sched, i1 = parse_atom a pm ni in
        let mu, i2 = parse_atom a pm i1 in
        if i2 < hi && a.(i2).Lexer.text = "(" then
          regions := (mutex mu, i2, if pm.(i2) >= 0 then pm.(i2) else hi - 1) :: !regions
        else if i2 < hi && a.(i2).Lexer.text = "@" then
          regions := (mutex mu, i2, hi - 1) :: !regions
      | "Mutex.lock" ->
        let _sched, i1 = parse_atom a pm ni in
        let mu, _ = parse_atom a pm i1 in
        open_locks := (mutex mu, !i) :: !open_locks
      | "Mutex.unlock" -> (
        let mu, _ = parse_atom a pm ni in
        match List.partition (fun (m, _) -> m = mutex mu) !open_locks with
        | (m, s) :: _, rest | [], (m, s) :: rest ->
          regions := (m, s, !i) :: !regions;
          open_locks := rest
        | [], [] -> ())
      | _ -> ());
      i := ni
    end
    else incr i
  done;
  List.iter (fun (m, s) -> regions := (m, s, hi - 1) :: !regions) !open_locks;
  !regions

let iter_regions (a : Lexer.token array) pm =
  let n = Array.length a in
  let regions = ref [] in
  let for_stack = ref [] in
  let i = ref 0 in
  while !i < n do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name, _, ni = qualified a !i in
      (if name = "for" || name = "while" then for_stack := !i :: !for_stack
       else if name = "done" then
         match !for_stack with
         | s :: rest ->
           regions := (s, !i) :: !regions;
           for_stack := rest
         | [] -> ()
       else if List.mem (last2 name) iter_names then
         if ni < n && a.(ni).Lexer.text = "(" then
           regions := (ni, if pm.(ni) >= 0 then pm.(ni) else n - 1) :: !regions);
      i := ni
    end
    else incr i
  done;
  !regions

let in_region regions i = List.exists (fun (s, e) -> s <= i && i <= e) regions

(* ---- the lint proper ------------------------------------------------ *)

let lint_tokens ~path a pm pragmas =
  let n = Array.length a in
  if n = 0 then []
  else begin
    let items = spans a in
    let env = { remote = Hashtbl.create 16; producers = Hashtbl.create 16 } in
    let and_line = Hashtbl.create 8 in
    (* fixpoint: variable facts and producer facts feed each other *)
    for _ = 1 to 2 do
      Array.iteri
        (fun i _ ->
          match binding_at a pm i with
          | Some (pat, rhs, _) -> record_binding env ~and_line pat rhs a.(i).Lexer.line
          | None -> ())
        a;
      learn_producers a pm items env
    done;
    Hashtbl.reset env.remote;
    Hashtbl.reset and_line;
    let locked =
      List.concat_map
        (fun (b, e) -> List.map (fun (_, s, e) -> (s, e)) (lock_regions a pm b e))
        items
    in
    let iters = iter_regions a pm in
    let findings = ref [] in
    let emit ~rule ~severity ~line message =
      findings :=
        Finding.v ~rule ~severity ~loc:(Finding.File { file = path; line }) message
        :: !findings
    in
    let and_adds = Hashtbl.create 8 in
    let resolve_atom = function
      | AName s when is_simple s -> Hashtbl.find_opt env.remote s
      | AName _ -> None
      | AParen (Some h) -> resolve_head env h
      | AParen None | AOther -> None
    in
    (* linear scan in program order so variable shadowing is respected *)
    let i = ref 0 in
    while !i < n do
      (match binding_at a pm !i with
      | Some (pat, rhs, _) -> record_binding env ~and_line pat rhs a.(!i).Lexer.line
      | None -> ());
      if Lexer.is_ident a.(!i).Lexer.text then begin
        let name, line, ni = qualified a !i in
        (match last2 name with
        | ("Sched.wait" | "Sched.wait_timeout") as w ->
          if in_region locked !i then
            emit ~rule:Finding.lock_across_wait ~severity:Finding.Error ~line
              "suspension point while a Depfast.Mutex is held: a single slow \
               firer blocks every coroutine contending on the lock (the \
               RethinkDB hazard, paper §2)";
          let _sched, i1 = parse_atom a pm ni in
          let ev, _ = parse_atom a pm i1 in
          (match resolve_atom ev with
          | Some k ->
            let severity = match k with Rpc -> Finding.Error | Disk -> Finding.Warning in
            emit ~rule:Finding.red_wait ~severity ~line
              (Printf.sprintf
                 "wait on a single %s completion outside a quorum/or_ wrapper: \
                  that peer stalls this coroutine; wrap it in Event.quorum or \
                  race it against Sched.timer via Event.or_"
                 (kind_name k));
            if w = "Sched.wait" && k = Rpc then
              emit ~rule:Finding.unbounded_wait ~severity:Finding.Warning ~line
                "untimed wait on a remote completion with no or_/timer escape: \
                 use Sched.wait_timeout or add a timer sibling via Event.or_"
          | None -> ())
        | "Condvar.wait" | "Condvar.wait_timeout" ->
          if in_region locked !i then
            emit ~rule:Finding.lock_across_wait ~severity:Finding.Error ~line
              "condition wait while a Depfast.Mutex is held: Depfast.Condvar \
               does not release the mutex, so this deadlocks or serialises \
               every contender behind one slow firer"
        | "Event.add" -> (
          let parent, i1 = parse_atom a pm ni in
          match parent with
          | AName p when is_simple p && Hashtbl.mem and_line p ->
            (* expect [~child:<atom>] *)
            if
              i1 + 2 < n
              && a.(i1).Lexer.text = "~"
              && a.(i1 + 1).Lexer.text = "child"
              && a.(i1 + 2).Lexer.text = ":"
            then begin
              let child, _ = parse_atom a pm (i1 + 3) in
              if resolve_atom child = Some Rpc then begin
                let w = if in_region iters !i then 2 else 1 in
                let key = (p, Hashtbl.find and_line p) in
                let cur = try Hashtbl.find and_adds key with Not_found -> 0 in
                Hashtbl.replace and_adds key (cur + w)
              end
            end
          | _ -> ())
        | _ -> ());
        i := ni
      end
      else incr i
    done;
    Hashtbl.iter
      (fun (p, line) w ->
        if w >= 2 then
          emit ~rule:Finding.degenerate_quorum ~severity:Finding.Error ~line
            (Printf.sprintf
               "and_ %S collects multiple rpc completions: k = n, so every \
                peer stalls it; use Event.quorum with Majority/Count, or \
                Event.or_ with a timer escape"
               p))
      and_adds;
    allow_pragmas (fun _ -> pragmas) !findings |> List.sort Finding.by_location
  end

let lint_string ?(path = "<string>") src =
  let { Lexer.tokens = a; pragmas } = Lexer.scan src in
  lint_tokens ~path a (paren_matches a) pragmas

let lint_file path = lint_string ~path (read_source path)

let ml_files roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.fold_left
           (fun acc entry ->
             if entry = "_build" || entry = ".git" then acc
             else walk acc (Filename.concat path entry))
           acc
    else if Filename.check_suffix path ".ml" && not (Filename.check_suffix path ".pp.ml") then
      path :: acc
    else acc
  in
  List.rev (List.fold_left walk [] roots)
