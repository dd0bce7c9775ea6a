type token = { line : int; col : int; text : string }
type pragma = { p_line : int; p_rules : string list }
type result = { tokens : token array; pragmas : pragma list }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_ident s = String.length s > 0 && is_ident_start s.[0]

(* The one pragma window: a pragma on lines L-3..L allows [rule] at L. *)
let allows pragmas rule line =
  List.exists
    (fun p -> p.p_line <= line && p.p_line >= line - 3 && List.mem rule p.p_rules)
    pragmas

(* Words of a comment body, maximal runs of [a-z0-9-], each with the
   text separating it from the previous word. If the comment reads
   "... depfast-lint: allow <ids> ..." the allowed rule ids are the words
   after "allow" up to the first one not separated by blanks alone, so
   "allow red-exposure lock-across-call — prose" allows two ids. *)
let parse_pragma ~line body =
  let words = ref [] in
  let buf = Buffer.create 16 in
  let sep = Buffer.create 4 in
  String.iter
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' then
        Buffer.add_char buf c
      else begin
        if Buffer.length buf > 0 then begin
          words := (Buffer.contents buf, Buffer.contents sep) :: !words;
          Buffer.clear buf;
          Buffer.clear sep
        end;
        Buffer.add_char sep c
      end)
    body;
  if Buffer.length buf > 0 then words := (Buffer.contents buf, Buffer.contents sep) :: !words;
  let blank s = s <> "" && String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s in
  let rec ids = function
    | (w, sep) :: rest when blank sep -> w :: ids rest
    | _ -> []
  in
  let rec find = function
    | ("depfast-lint", _) :: ("allow", _) :: rest -> Some { p_line = line; p_rules = ids rest }
    | _ :: rest -> find rest
    | [] -> None
  in
  find (List.rev !words)

let scan src =
  let n = String.length src in
  let tokens = ref [] in
  let pragmas = ref [] in
  let i = ref 0 in
  let line = ref 1 in
  let col = ref 0 in
  let adv () =
    (if src.[!i] = '\n' then begin
       incr line;
       col := 0
     end
     else incr col);
    incr i
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then adv ()
    else if c = '(' && peek 1 = Some '*' then begin
      (* comment, possibly nested; collect body for pragma parsing *)
      let start_line = !line in
      let buf = Buffer.create 64 in
      adv ();
      adv ();
      let depth = ref 1 in
      while !depth > 0 && !i < n do
        if src.[!i] = '(' && peek 1 = Some '*' then begin
          incr depth;
          adv ();
          adv ()
        end
        else if src.[!i] = '*' && peek 1 = Some ')' then begin
          decr depth;
          adv ();
          adv ()
        end
        else begin
          Buffer.add_char buf src.[!i];
          adv ()
        end
      done;
      match parse_pragma ~line:start_line (Buffer.contents buf) with
      | Some p -> pragmas := p :: !pragmas
      | None -> ()
    end
    else if c = '"' then begin
      adv ();
      let fin = ref false in
      while (not !fin) && !i < n do
        if src.[!i] = '\\' && !i + 1 < n then begin
          adv ();
          adv ()
        end
        else if src.[!i] = '"' then begin
          adv ();
          fin := true
        end
        else adv ()
      done
    end
    else if c = '{' && (match peek 1 with Some ('a' .. 'z' | '_' | '|') -> true | _ -> false)
    then begin
      (* quoted string {id|...|id} — find the opening bar, then the close *)
      let j = ref (!i + 1) in
      while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
        incr j
      done;
      if !j < n && src.[!j] = '|' then begin
        let id = String.sub src (!i + 1) (!j - !i - 1) in
        let close = "|" ^ id ^ "}" in
        let cl = String.length close in
        (* consume through the matching close *)
        let fin = ref false in
        while (not !fin) && !i < n do
          if !i + cl <= n && String.sub src !i cl = close && !i > !j then begin
            for _ = 1 to cl do
              adv ()
            done;
            fin := true
          end
          else adv ()
        done
      end
      else begin
        tokens := { line = !line; col = !col; text = "{" } :: !tokens;
        adv ()
      end
    end
    else if c = '\'' then begin
      (* char literal or type variable *)
      match (peek 1, peek 2) with
      | Some '\\', _ ->
        adv ();
        adv ();
        let fin = ref false in
        while (not !fin) && !i < n do
          if src.[!i] = '\'' then begin
            adv ();
            fin := true
          end
          else adv ()
        done
      | Some _, Some '\'' ->
        adv ();
        adv ();
        adv ()
      | _ -> adv () (* type variable quote: drop it *)
    end
    else if is_ident_start c then begin
      let l = !line and cl = !col in
      let buf = Buffer.create 16 in
      while !i < n && is_ident_char src.[!i] do
        Buffer.add_char buf src.[!i];
        adv ()
      done;
      tokens := { line = l; col = cl; text = Buffer.contents buf } :: !tokens
    end
    else if c >= '0' && c <= '9' then begin
      let l = !line and cl = !col in
      let buf = Buffer.create 8 in
      while
        !i < n
        && (match src.[!i] with
           | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | 'x' | 'o' | '_' | '.' -> true
           | _ -> false)
      do
        Buffer.add_char buf src.[!i];
        adv ()
      done;
      tokens := { line = l; col = cl; text = Buffer.contents buf } :: !tokens
    end
    else begin
      tokens := { line = !line; col = !col; text = String.make 1 c } :: !tokens;
      adv ()
    end
  done;
  { tokens = Array.of_list (List.rev !tokens); pragmas = List.rev !pragmas }
