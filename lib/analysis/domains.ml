module SL = Source_lint

(* Front end 5: depfast-domains — the mutable-state inventory, one write
   scan per body, and an ownership verdict and certificate per cell. *)

type cell_kind = Ref | Queue | Hash | Buf | Log | Atomic | Record | Field

let kind_name = function
  | Ref -> "ref"
  | Queue -> "queue"
  | Hash -> "hashtbl"
  | Buf -> "buffer"
  | Log -> "log"
  | Atomic -> "atomic"
  | Record -> "record"
  | Field -> "field"

type cell = {
  cl_name : string;  (* canonical: Module.x, or .field *)
  cl_kind : cell_kind;
  cl_file : string;
  cl_line : int;
}

let class_immutable = "immutable-after-init"
let class_engine = "engine-owned"
let class_guarded = "guarded"
let class_unsafe = "unsafe-shared"

(* ---- inventory ------------------------------------------------------- *)

(* rhs heads that allocate a top-level mutable store *)
let rhs_heads =
  [
    ("Queue.create", Queue);
    ("Hashtbl.create", Hash);
    ("Buffer.create", Buf);
    ("Rlog.create", Log);
    ("Atomic.make", Atomic);
    ("Stdlib.ref", Ref);
  ]

(* The labels of the braces opened at [a.(o)]: each identifier that
   starts a field at the braces' own depth (after the [{], a [;] or a
   [with], past a [mutable] and a module path) and that [=], [;], [:] or
   [}] follows. The labels of a literal or of a record type alike; the
   identifiers in field values and types are not *)
let brace_labels (a : Lexer.token array) o =
  let e = Array.length a in
  let depth = ref 0 and k = ref (o + 1) and labels = ref [] in
  let field_start = ref true in
  while !depth >= 0 && !k < e do
    let t = a.(!k).Lexer.text in
    (if !depth = 0 && !field_start && Lexer.is_ident t && t <> "mutable" then begin
       let l = ref !k in
       while !l + 2 < e && a.(!l + 1).Lexer.text = "." && Lexer.is_ident a.(!l + 2).Lexer.text do
         l := !l + 2
       done;
       if !l + 1 < e && List.mem a.(!l + 1).Lexer.text [ "="; ";"; ":"; "}" ] then
         labels := a.(!l).Lexer.text :: !labels
     end);
    (match t with
    | "(" | "[" | "{" | "begin" -> incr depth
    | ")" | "]" | "}" | "end" -> decr depth
    | _ -> ());
    field_start := !depth = 0 && (t = ";" || t = "with" || (!field_start && t = "mutable"));
    incr k
  done;
  List.sort_uniq compare !labels

(* the [{] that opens the braces around [a.(i)], or -1 *)
let enclosing_brace (a : Lexer.token array) i =
  let depth = ref 0 and k = ref (i - 1) and found = ref (-1) in
  while !found < 0 && !k >= 0 do
    (match a.(!k).Lexer.text with
    | "}" -> incr depth
    | "{" -> if !depth = 0 then found := !k else decr depth
    | _ -> ());
    decr k
  done;
  !found

(* Every [mutable] field declaration in the tree, and the label set of
   every record type that declares one. Same-named fields merge across
   types (the growth pass's canonicalization); the cell's site is the
   lexicographically least (file, line) declaration. *)
let field_inventory files =
  let fields = Hashtbl.create 64 and records = ref [] in
  List.iter
    (fun (fc : Growth.file_ctx) ->
      let a = fc.Growth.fc_toks in
      let last = ref (-1) in
      Array.iteri
        (fun i (tok : Lexer.token) ->
          if
            tok.Lexer.text = "mutable"
            && i + 1 < Array.length a
            && Lexer.is_ident a.(i + 1).Lexer.text
          then begin
            (* the record type's labels, at its first [mutable] *)
            let o = enclosing_brace a i in
            if o >= 0 && o <> !last then begin
              last := o;
              records := brace_labels a o :: !records
            end;
            let cellname = "." ^ a.(i + 1).Lexer.text in
            let site = (fc.Growth.fc_path, a.(i + 1).Lexer.line) in
            match Hashtbl.find_opt fields cellname with
            | Some s when s <= site -> ()
            | _ -> Hashtbl.replace fields cellname site
          end)
        a)
    files;
  (fields, !records)

(* Top-level value bindings whose right-hand side allocates mutable
   state: [let x = ref 0], [let q = Queue.create ()], [let d = { ... }]
   of a record type with a mutable field, through an optional [: ty]
   annotation (the first [=] at paren depth 0) and a [lazy] wrapper.
   Function definitions (parameters before the [=]) are not cells. *)
let global_inventory files (fields, records) =
  let cells = Hashtbl.create 64 in
  List.iter
    (fun (fc : Growth.file_ctx) ->
      let a = fc.Growth.fc_toks in
      List.iter
        (fun (f : Growth.fn) ->
          let b = f.Growth.g_b and e = f.Growth.g_e in
          let j =
            if b + 1 < e && a.(b + 1).Lexer.text = "rec" then b + 2 else b + 1
          in
          if j < e && Lexer.is_ident a.(j).Lexer.text && a.(j).Lexer.text <> "_" then begin
            let rhs =
              if j + 1 < e && a.(j + 1).Lexer.text = "=" then Some (j + 2)
              else if j + 1 < e && a.(j + 1).Lexer.text = ":" then begin
                (* [let x : <ty> = rhs]: first [=] at depth 0 *)
                let depth = ref 0 and k = ref (j + 2) and found = ref None in
                while !found = None && !k < e do
                  (match a.(!k).Lexer.text with
                  | "(" | "[" | "{" -> incr depth
                  | ")" | "]" | "}" -> decr depth
                  | "=" when !depth = 0 -> found := Some (!k + 1)
                  | _ -> ());
                  incr k
                done;
                !found
              end
              else None
            in
            match rhs with
            | None -> ()
            | Some r ->
              let r = if r < e && a.(r).Lexer.text = "lazy" then r + 1 else r in
              if r < e then begin
                let kind =
                  let t = a.(r).Lexer.text in
                  if t = "ref" then Some Ref
                  else if t = "{" then begin
                    (* record literal: mutable iff a record type with a
                       mutable field has every one of its own labels
                       (a [with] update names a subset). A mutable
                       field's name among its labels or in its values
                       is not enough: another type may share it *)
                    let labels = brace_labels a r in
                    if
                      labels <> []
                      && List.exists
                           (fun fs -> List.for_all (fun l -> List.mem l fs) labels)
                           records
                    then Some Record
                    else None
                  end
                  else if Lexer.is_ident t then
                    List.assoc_opt (SL.last2 a.(r).Lexer.dotted) rhs_heads
                  else None
                in
                match kind with
                | Some k ->
                  let cname = fc.Growth.fc_mdl ^ "." ^ a.(j).Lexer.text in
                  if not (Hashtbl.mem cells cname) then
                    Hashtbl.replace cells cname
                      {
                        cl_name = cname;
                        cl_kind = k;
                        cl_file = fc.Growth.fc_path;
                        cl_line = f.Growth.g_line;
                      }
                | None -> ()
              end
          end)
        fc.Growth.fc_fns)
    files;
  Hashtbl.iter
    (fun cname (file, line) ->
      Hashtbl.replace cells cname
        { cl_name = cname; cl_kind = Field; cl_file = file; cl_line = line })
    fields;
  cells

(* ---- the write scan -------------------------------------------------- *)

(* What a written name resolves to under the cell inventory. *)
type target =
  | TGlobal of string
  | TField of string * string option  (* field cell, top-level base if any *)
  | TNone

let target cells (fc : Growth.file_ctx) name =
  if SL.is_simple name then begin
    let q = fc.Growth.fc_mdl ^ "." ^ name in
    if Hashtbl.mem cells q then TGlobal q else TNone
  end
  else
    let segs = String.split_on_char '.' name in
    let first = List.hd segs in
    if first <> "" && first.[0] >= 'A' && first.[0] <= 'Z' then begin
      let l2 = SL.last2 name in
      if Hashtbl.mem cells l2 then TGlobal l2
      else
        (* [Mod.glob.field]: the first two segments may name a cell *)
        match segs with
        | m :: g :: (_ :: _ as rest) ->
          let base = m ^ "." ^ g in
          if Hashtbl.mem cells base then begin
            let fieldc = "." ^ List.nth rest (List.length rest - 1) in
            if Hashtbl.mem cells fieldc then TField (fieldc, Some base)
            else TGlobal base
          end
          else TNone
        | _ -> TNone
    end
    else begin
      let fieldc = "." ^ SL.last_segment name in
      let baseq = fc.Growth.fc_mdl ^ "." ^ first in
      let base = if Hashtbl.mem cells baseq then Some baseq else None in
      if Hashtbl.mem cells fieldc then TField (fieldc, base)
      else match base with Some b -> TGlobal b | None -> TNone
    end

(* (head, container argument positions): the operations that mutate a
   store kind the inventory tracks *)
let write_ops =
  [
    ("Queue.add", [ 1 ]);
    ("Queue.push", [ 1 ]);
    ("Queue.pop", [ 0 ]);
    ("Queue.take", [ 0 ]);
    ("Queue.take_opt", [ 0 ]);
    ("Queue.clear", [ 0 ]);
    ("Queue.transfer", [ 0; 1 ]);
    ("Hashtbl.add", [ 0 ]);
    ("Hashtbl.replace", [ 0 ]);
    ("Hashtbl.remove", [ 0 ]);
    ("Hashtbl.reset", [ 0 ]);
    ("Hashtbl.clear", [ 0 ]);
    ("Buffer.add_string", [ 0 ]);
    ("Buffer.add_char", [ 0 ]);
    ("Buffer.add_bytes", [ 0 ]);
    ("Buffer.add_buffer", [ 0 ]);
    ("Buffer.clear", [ 0 ]);
    ("Buffer.reset", [ 0 ]);
    ("Rlog.append", [ 0 ]);
    ("Rlog.truncate_from", [ 0 ]);
    ("Atomic.set", [ 0 ]);
    ("Atomic.incr", [ 0 ]);
    ("Atomic.decr", [ 0 ]);
    ("Atomic.fetch_and_add", [ 0 ]);
    ("Atomic.exchange", [ 0 ]);
    ("Atomic.compare_and_set", [ 0 ]);
    ("incr", [ 0 ]);
    ("decr", [ 0 ]);
  ]

(* One write to a cell. Sorted with [compare], a cell's writes fall in
   (file, line) order, so witnesses are stable; equal writes count once. *)
type write = {
  w_file : string;
  w_line : int;
  w_fn : string;
  w_locked : bool;  (* lexically inside a Mutex.with_lock body or lock..unlock span *)
  w_top : bool;  (* a field write whose base resolves to a top-level cell *)
}

(* Each write in one body: the container argument of a [write_ops]
   head, and the left-hand side of [x := e] and [t.f <- e]. A field
   write through a top-level base writes the base cell too. *)
let scan_fn cells (fc : Growth.file_ctx) (f : Growth.fn) ~add =
  let a = fc.Growth.fc_toks in
  let n = Array.length a and hi = f.Growth.g_e in
  let spans = lazy (SL.lock_regions a fc.Growth.fc_pm f.Growth.g_b hi) in
  let record i name =
    let w top =
      {
        w_file = fc.Growth.fc_path;
        w_line = a.(i).Lexer.line;
        w_fn = f.Growth.g_qname;
        w_locked = List.exists (fun (_, b, e) -> b <= i && i <= e) (Lazy.force spans);
        w_top = top;
      }
    in
    match target cells fc name with
    | TGlobal c -> add c (w false)
    | TField (c, base) -> (
      add c (w (base <> None));
      match base with Some b -> add b (w false) | None -> ())
    | TNone -> ()
  in
  let i = ref f.Growth.g_b in
  while !i < hi do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let ni = SL.after a !i in
      (match List.assoc_opt (SL.last2_at a !i ni) write_ops with
      | Some poss ->
        List.iter
          (fun p ->
            match Growth.nth_arg a ni p with Some (arg, _) -> record !i arg | None -> ())
          poss
      | None -> ());
      if
        ni + 1 < n
        && ((a.(ni).Lexer.text = ":" && a.(ni + 1).Lexer.text = "=")
           || (a.(ni).Lexer.text = "<" && a.(ni + 1).Lexer.text = "-"))
      then record !i a.(!i).Lexer.dotted;
      i := ni
    end
    else incr i
  done

(* ---- the verdicts ---------------------------------------------------- *)

let analyze p =
  let files = Growth.files p in
  let cells = global_inventory files (field_inventory files) in
  let writes = Hashtbl.create 64 in
  let add c w = Hashtbl.replace writes c (w :: (try Hashtbl.find writes c with Not_found -> [])) in
  List.iter
    (fun (fc : Growth.file_ctx) -> List.iter (fun f -> scan_fn cells fc f ~add) fc.Growth.fc_fns)
    files;
  let findings = ref [] in
  let certs = ref [] in
  Hashtbl.iter
    (fun _ c ->
      let ws = List.sort_uniq compare (try Hashtbl.find writes c.cl_name with Not_found -> []) in
      let unlocked = List.filter (fun w -> not w.w_locked) ws in
      let nws = List.length ws in
      let cls, verdict, evidence =
        match c.cl_kind with
        | Atomic ->
          (class_guarded, Growth.Bounded, "lock-free: every operation an atomic read-modify-write")
        | Field ->
          if ws = [] then
            (class_immutable, Growth.Bounded, "mutable field never assigned anywhere in the tree")
          else if unlocked = [] then
            ( class_guarded,
              Growth.Bounded,
              Printf.sprintf "%d assignment site(s), all under a Mutex region" nws )
          else
            let tops = List.length (List.filter (fun w -> w.w_top) ws) in
            ( class_engine,
              Growth.Bounded,
              if tops = 0 then
                Printf.sprintf "%d assignment site(s), every base a threaded record value" nws
              else
                Printf.sprintf
                  "%d assignment site(s); %d through top-level bases, judged at those cells"
                  nws tops )
        | _ ->
          if ws = [] then
            (class_immutable, Growth.Bounded, "never written after its initializer")
          else if unlocked = [] then
            ( class_guarded,
              Growth.Bounded,
              Printf.sprintf "%d write site(s), all under a Mutex region" nws )
          else
            let w = List.hd unlocked in
            ( class_unsafe,
              Growth.Flagged,
              Printf.sprintf "written at %s:%d outside any Mutex region" w.w_file w.w_line )
      in
      certs :=
        {
          Growth.c_rule = Finding.unsafe_shared_state;
          c_kind = kind_name c.cl_kind;
          c_file = c.cl_file;
          c_line = c.cl_line;
          c_site = c.cl_name;
          c_verdict = verdict;
          c_evidence = cls ^ ": " ^ evidence;
        }
        :: !certs;
      if verdict = Growth.Flagged then begin
        let w = List.hd unlocked in
        findings :=
          Finding.v ~rule:Finding.unsafe_shared_state ~severity:Finding.Error
            ~loc:(Finding.File { file = c.cl_file; line = c.cl_line })
            (Printf.sprintf
               "top-level %s %s is written at %s:%d outside any Mutex region or owner \
                record: a data race once this runs across OCaml 5 domains — make it \
                atomic, guard it, or scope it per instance"
               (kind_name c.cl_kind) c.cl_name w.w_file w.w_line)
          :: !findings
      end)
    cells;
  ( List.sort_uniq Finding.by_location (Growth.allow p !findings),
    List.sort_uniq Growth.by_site !certs,
    () )

let analyze_files paths = analyze (Growth.load_files paths)
