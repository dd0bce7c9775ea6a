type token = { line : int; col : int; text : string; dotted : string }
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

(* Does [buf] hold the string [w] at index [i] or later? A pragma's
   words include "depfast-lint", so a comment body without that string
   is not parsed. *)
let rec holds buf w i =
  i + String.length w <= Buffer.length buf && (holds_at buf w i 0 || holds buf w (i + 1))

and holds_at buf w i k =
  k = String.length w || (Buffer.nth buf (i + k) = w.[k] && holds_at buf w i (k + 1))

(* [len] characters of [src] at [p] and at [q] agree. *)
let rec same_run src p q len =
  len = 0 || (src.[p] = src.[q] && same_run src (p + 1) (q + 1) (len - 1))

(* The loop [scan] and [pragmas] share: it consumes comments, strings
   and char literals, returns the pragmas in source order, and hands
   each token to [emit line col start length] as a span of [src]. *)
let lex src emit =
  let n = String.length src in
  let pragmas = ref [] in
  let body = Buffer.create 256 in
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
  (* the character [k] ahead, or NUL past the end *)
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then adv ()
    else if c = '(' && peek 1 = '*' then begin
      (* comment, possibly nested; collect body for pragma parsing *)
      let start_line = !line in
      Buffer.clear body;
      adv ();
      adv ();
      let depth = ref 1 in
      while !depth > 0 && !i < n do
        if src.[!i] = '(' && peek 1 = '*' then begin
          incr depth;
          adv ();
          adv ()
        end
        else if src.[!i] = '*' && peek 1 = ')' then begin
          decr depth;
          adv ();
          adv ()
        end
        else begin
          Buffer.add_char body src.[!i];
          adv ()
        end
      done;
      if holds body "depfast-lint" 0 then
        match parse_pragma ~line:start_line (Buffer.contents body) with
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
    else if c = '{' && (match peek 1 with 'a' .. 'z' | '_' | '|' -> true | _ -> false) then begin
      (* quoted string {id|...|id} — find the opening bar, then the close *)
      let j = ref (!i + 1) in
      while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
        incr j
      done;
      if !j < n && src.[!j] = '|' then begin
        (* the close is "|id}", compared in place against the opening id *)
        let id = !i + 1 and idl = !j - !i - 1 in
        let closes k =
          k > !j && k + idl + 2 <= n && src.[k] = '|' && src.[k + idl + 1] = '}'
          && same_run src id (k + 1) idl
        in
        let fin = ref false in
        while (not !fin) && !i < n do
          if closes !i then begin
            for _ = 1 to idl + 2 do
              adv ()
            done;
            fin := true
          end
          else adv ()
        done
      end
      else begin
        emit !line !col !i 1;
        adv ()
      end
    end
    else if c = '\'' then begin
      (* char literal or type variable *)
      if peek 1 = '\\' then begin
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
      end
      else if peek 2 = '\'' then begin
        adv ();
        adv ();
        adv ()
      end
      else adv () (* type variable quote: drop it *)
    end
    else if is_ident_start c then begin
      let l = !line and cl = !col and s = !i in
      while !i < n && is_ident_char src.[!i] do
        adv ()
      done;
      emit l cl s (!i - s)
    end
    else if c >= '0' && c <= '9' then begin
      let l = !line and cl = !col and s = !i in
      while
        !i < n
        && (match src.[!i] with
           | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | 'x' | 'o' | '_' | '.' -> true
           | _ -> false)
      do
        adv ()
      done;
      emit l cl s (!i - s)
    end
    else begin
      emit !line !col !i 1;
      adv ()
    end
  done;
  List.rev !pragmas

let pragmas src = lex src (fun _ _ _ _ -> ())

(* One string per character, shared by every one-character token. *)
let single = Array.init 256 (fun c -> String.make 1 (Char.chr c))

let none = { line = 0; col = 0; text = ""; dotted = "" }

let scan src =
  (* about one token per four bytes of source; doubled if short *)
  let toks = ref (Array.make ((String.length src / 4) + 16) none) and count = ref 0 in
  let emit line col start len =
    let text = if len = 1 then single.(Char.code src.[start]) else String.sub src start len in
    if !count = Array.length !toks then begin
      let grown = Array.make (2 * !count) none in
      Array.blit !toks 0 grown 0 !count;
      toks := grown
    end;
    !toks.(!count) <- { line; col; text; dotted = text };
    incr count
  in
  let pragmas = lex src emit in
  let a = Array.sub !toks 0 !count in
  (* [x . y] joins as [x.y] when [y] is an identifier; going backward,
     each name extends the already-joined one after its dot *)
  for k = !count - 3 downto 0 do
    let t = a.(k) in
    if is_ident t.text && a.(k + 1).text = "." && is_ident a.(k + 2).text then
      a.(k) <- { t with dotted = t.text ^ "." ^ a.(k + 2).dotted }
  done;
  { tokens = a; pragmas }
