module SL = Source_lint

(* The mutable-state inventory and interprocedural effect analysis
   behind the depfast-domains pass: which top-level mutable cells exist,
   and which of them each function may read or write, including through
   calls across modules and SCCs. *)

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

type access = {
  a_fn : string;
  a_cell : string;
  a_file : string;
  a_line : int;
  a_write : bool;
  a_locked : bool;  (* lexically inside a Mutex.with_lock body or lock..unlock span *)
  a_top : bool;  (* a field access whose base resolves to a top-level cell *)
  a_escape : bool;  (* unconsumed mention: the cell aliases out, read-only here *)
}

type t = {
  e_cells : cell list;  (* sorted by canonical name *)
  e_accesses : access list;  (* sorted by (cell, file, line, fn) *)
  e_summaries : (string, Summary.t) Hashtbl.t;  (* qname -> closed effects *)
}

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

(* ---- per-function access scan ---------------------------------------- *)

(* What a mention resolves to under the cell inventory. *)
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

(* (head, container argument positions): mutating and read-only
   operations over the store kinds the inventory tracks *)
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

let read_ops =
  [
    ("Queue.length", [ 0 ]);
    ("Queue.is_empty", [ 0 ]);
    ("Queue.peek", [ 0 ]);
    ("Queue.peek_opt", [ 0 ]);
    ("Queue.iter", [ 1 ]);
    ("Hashtbl.find", [ 0 ]);
    ("Hashtbl.find_opt", [ 0 ]);
    ("Hashtbl.find_all", [ 0 ]);
    ("Hashtbl.mem", [ 0 ]);
    ("Hashtbl.length", [ 0 ]);
    ("Hashtbl.iter", [ 1 ]);
    ("Hashtbl.fold", [ 1 ]);
    ("Buffer.length", [ 0 ]);
    ("Buffer.contents", [ 0 ]);
    ("Rlog.length", [ 0 ]);
    ("Atomic.get", [ 0 ]);
  ]

let scan_fn cells (fc : Growth.file_ctx) (f : Growth.fn) ~add =
  let a = fc.Growth.fc_toks in
  let pm = fc.Growth.fc_pm in
  let hi = f.Growth.g_e in
  let spans = SL.lock_regions a pm f.Growth.g_b hi in
  let locked k = List.exists (fun (_, b, e) -> b <= k && k <= e) spans in
  (* pass 1: container/atomic operations; the container argument token
     is marked consumed so pass 2 does not read it a second time *)
  let consumed = Hashtbl.create 16 in
  let i = ref f.Growth.g_b in
  while !i < hi do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name = a.(!i).Lexer.dotted and line = a.(!i).Lexer.line and ni = SL.after a !i in
      let l2 = SL.last2 name in
      let hit write poss =
        List.iter
          (fun p ->
            match Growth.nth_arg a ni p with
            | None -> ()
            | Some (arg, argstart) -> (
              Hashtbl.replace consumed argstart ();
              match target cells fc arg with
              | TGlobal c ->
                add ~fn:f.Growth.g_qname ~cell:c ~line ~write ~locked:(locked !i)
                  ~top:false ~escape:false
              | TField (c, base) ->
                add ~fn:f.Growth.g_qname ~cell:c ~line ~write ~locked:(locked !i)
                  ~top:(base <> None) ~escape:false;
                (match base with
                | Some b ->
                  add ~fn:f.Growth.g_qname ~cell:b ~line ~write ~locked:(locked !i)
                    ~top:false ~escape:false
                | None -> ())
              | TNone -> ()))
          poss
      in
      (match List.assoc_opt l2 write_ops with
      | Some poss -> hit true poss
      | None -> ());
      (match List.assoc_opt l2 read_ops with
      | Some poss -> hit false poss
      | None -> ());
      i := ni
    end
    else incr i
  done;
  (* pass 2: direct mentions — [x := e], [!x], [t.f <- e], bare field
     reads, and unconsumed cell mentions (alias escapes, read-only) *)
  let n = Array.length a in
  let i = ref f.Growth.g_b in
  while !i < hi do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name = a.(!i).Lexer.dotted and line = a.(!i).Lexer.line and ni = SL.after a !i in
      if not (Hashtbl.mem consumed !i) then begin
        let assign =
          ni + 1 < n
          && ((a.(ni).Lexer.text = ":" && a.(ni + 1).Lexer.text = "=")
             || (a.(ni).Lexer.text = "<" && a.(ni + 1).Lexer.text = "-"))
        in
        let deref = !i > 0 && a.(!i - 1).Lexer.text = "!" in
        match target cells fc name with
        | TGlobal c ->
          if assign then
            add ~fn:f.Growth.g_qname ~cell:c ~line ~write:true ~locked:(locked !i)
              ~top:false ~escape:false
          else
            add ~fn:f.Growth.g_qname ~cell:c ~line ~write:false ~locked:(locked !i)
              ~top:false ~escape:(not deref)
        | TField (c, base) ->
          add ~fn:f.Growth.g_qname ~cell:c ~line ~write:assign ~locked:(locked !i)
            ~top:(assign && base <> None) ~escape:false;
          (match base with
          | Some b ->
            add ~fn:f.Growth.g_qname ~cell:b ~line ~write:assign ~locked:(locked !i)
              ~top:false ~escape:(not assign)
          | None -> ())
        | TNone -> ()
      end;
      i := ni
    end
    else incr i
  done

(* ---- the effect fixpoint --------------------------------------------- *)

let compute p =
  let files = Growth.files p in
  let fields = field_inventory files in
  let cells = global_inventory files fields in
  let accesses = ref [] in
  List.iter
    (fun (fc : Growth.file_ctx) ->
      let add ~fn ~cell ~line ~write ~locked ~top ~escape =
        accesses :=
          {
            a_fn = fn;
            a_cell = cell;
            a_file = fc.Growth.fc_path;
            a_line = line;
            a_write = write;
            a_locked = locked;
            a_top = top;
            a_escape = escape;
          }
          :: !accesses
      in
      List.iter (fun f -> scan_fn cells fc f ~add) fc.Growth.fc_fns)
    files;
  let accesses =
    List.sort_uniq
      (fun a b ->
        compare
          (a.a_cell, a.a_file, a.a_line, a.a_fn, a.a_write, a.a_locked, a.a_top, a.a_escape)
          (b.a_cell, b.a_file, b.a_line, b.a_fn, b.a_write, b.a_locked, b.a_top, b.a_escape))
      !accesses
  in
  (* direct summaries, then propagate callee effects to a fixpoint *)
  let summaries = Hashtbl.create 256 in
  List.iter
    (fun (fc : Growth.file_ctx) ->
      List.iter
        (fun (f : Growth.fn) ->
          if not (Hashtbl.mem summaries f.Growth.g_qname) then
            Hashtbl.replace summaries f.Growth.g_qname
              (Summary.create ~qname:f.Growth.g_qname ~file:fc.Growth.fc_path
                 ~line:f.Growth.g_line))
        fc.Growth.fc_fns)
    files;
  List.iter
    (fun a ->
      match Hashtbl.find_opt summaries a.a_fn with
      | None -> ()
      | Some s ->
        if a.a_write then Summary.add_write s a.a_cell else Summary.add_read s a.a_cell)
    accesses;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    Hashtbl.iter
      (fun q s ->
        List.iter
          (fun callee ->
            match Hashtbl.find_opt summaries callee with
            | None -> ()
            | Some cs ->
              let r = Summary.union s.Summary.reads cs.Summary.reads
              and w = Summary.union s.Summary.writes cs.Summary.writes in
              if r != s.Summary.reads || w != s.Summary.writes then changed := true;
              s.Summary.reads <- r;
              s.Summary.writes <- w)
          (Growth.callees p q))
      summaries
  done;
  let cell_list =
    Hashtbl.fold (fun _ c acc -> c :: acc) cells []
    |> List.sort (fun a b -> compare a.cl_name b.cl_name)
  in
  { e_cells = cell_list; e_accesses = accesses; e_summaries = summaries }

let fn_summary t q = Hashtbl.find_opt t.e_summaries q
