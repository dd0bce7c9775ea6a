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

(* The index past the dotted name starting at token [i]: the tokens
   [a.(i).dotted] joins. *)
let after (a : Lexer.token array) i =
  let n = Array.length a in
  let j = ref (i + 1) in
  while !j + 1 < n && a.(!j).Lexer.text = "." && Lexer.is_ident a.(!j + 1).Lexer.text do
    j := !j + 2
  done;
  !j

(* [last2] of the dotted name over tokens [i, ni) without building it:
   the lexer joined the name from each of its segments onward, so the
   second-to-last segment's [dotted] is already that string *)
let last2_at (a : Lexer.token array) i ni = a.(max i (ni - 3)).Lexer.dotted

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
        Some a.(!j).Lexer.dotted
      else None
    in
    (AParen head, close + 1)
  end
  else if Lexer.is_ident a.(i).Lexer.text then begin
    let name = a.(i).Lexer.dotted and next = after a i in
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
        if !head = None && Lexer.is_ident t then head := Some a.(!i).Lexer.dotted);
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
               Some a.(!k).Lexer.dotted
             else None)
      in
      Some (pat, rhs, eq)

(* ---- locked regions ------------------------------------------------- *)

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
      let ni = after a !i in
      (match last2_at a !i ni with
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

(* ---- the per-file check: pragma hygiene ----------------------------- *)

let check_pragmas ~path pragmas =
  List.concat_map
    (fun (p : Lexer.pragma) ->
      List.filter_map
        (fun id ->
          if List.mem_assoc id Finding.static_rules then None
          else
            Some
              (Finding.v ~rule:Finding.unknown_pragma ~severity:Finding.Error
                 ~loc:(Finding.File { file = path; line = p.Lexer.p_line })
                 (Printf.sprintf
                    "pragma allows %S, which no static pass reports (see depfast_lint --rules): \
                     it exempts nothing"
                    id)))
        p.Lexer.p_rules)
    pragmas

let lint_string ?(path = "<string>") src = check_pragmas ~path (Lexer.pragmas src)

let lint_file path = lint_string ~path (read_source path)

(* dot entries are skipped like [_build]: dune builds no source there, and
   its [.objs] directories change under a walk while a build runs *)
let ml_files roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.fold_left
           (fun acc entry ->
             if entry = "_build" || entry.[0] = '.' then acc
             else walk acc (Filename.concat path entry))
           acc
    else if Filename.check_suffix path ".ml" && not (Filename.check_suffix path ".pp.ml") then
      path :: acc
    else acc
  in
  List.rev (List.fold_left walk [] roots)
