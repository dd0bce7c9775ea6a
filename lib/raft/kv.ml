(* The store is an open-addressing table: linear probing over parallel key
   and value arrays, grown 2x into fresh arrays when half full; keys are
   never removed. A Stdlib [Hashtbl] grows by relinking every binding cell
   in place. When that happens while the major GC marks, the write barrier
   darkens the cell each relink overwrites, pushing thousands onto the
   mark stack at once, and at a small heap OCaml 5.1 compresses the
   overflowing stack in address order: the words a run promotes then
   depend on where the heap was mapped. Growing into fresh arrays
   overwrites only vacant slots. *)
type t = {
  mutable keys : string array;
  mutable vals : string array;
  mutable n_keys : int;
  sessions : (int, int) Hashtbl.t;  (* client_id -> last applied seq *)
  locks : (string, int) Hashtbl.t;  (* key -> txid holding its 2PC lock *)
  staged : (int, (string * string) list) Hashtbl.t;  (* txid -> writes *)
  mutable applied : int;
}

(* a vacant slot, told apart from every key by [==] *)
let vacant = String.make 1 '\000'

let initial_capacity = 16

(* empty at the created capacity, since the iteration order of the store
   and of the tables depends on it *)
let reset t =
  if Array.length t.keys = initial_capacity then begin
    Array.fill t.keys 0 initial_capacity vacant;
    Array.fill t.vals 0 initial_capacity vacant
  end
  else begin
    t.keys <- Array.make initial_capacity vacant;
    t.vals <- Array.make initial_capacity vacant
  end;
  t.n_keys <- 0;
  Hashtbl.reset t.sessions;
  Hashtbl.reset t.locks;
  Hashtbl.reset t.staged;
  t.applied <- 0

let create () =
  let t =
    {
      keys = Array.make initial_capacity vacant;
      vals = Array.make initial_capacity vacant;
      n_keys = 0;
      sessions = Hashtbl.create 64;
      locks = Hashtbl.create 64;
      staged = Hashtbl.create 64;
      applied = 0;
    }
  in
  reset t;
  t

(* the slot holding [k], or the vacant slot where it would go *)
let rec probe keys k i =
  let x = keys.(i) in
  if x == vacant || String.equal x k then i else probe keys k ((i + 1) land (Array.length keys - 1))

let slot keys k = probe keys k (Hashtbl.hash k land (Array.length keys - 1))

let find t k =
  let i = slot t.keys k in
  if t.keys.(i) == vacant then None else Some t.vals.(i)

(* bind [k] to [v] in the arrays; true if [k] is new *)
let put keys vals k v =
  let i = slot keys k in
  let fresh = keys.(i) == vacant in
  if fresh then keys.(i) <- k;
  vals.(i) <- v;
  fresh

let replace t k v =
  if 2 * (t.n_keys + 1) > Array.length t.keys then begin
    let keys = Array.make (2 * Array.length t.keys) vacant in
    let vals = Array.make (2 * Array.length t.keys) vacant in
    Array.iteri (fun i k -> if k != vacant then ignore (put keys vals k t.vals.(i))) t.keys;
    t.keys <- keys;
    t.vals <- vals
  end;
  if put t.keys t.vals k v then t.n_keys <- t.n_keys + 1

(* -1 for a session not seen; [find] rather than [find_opt], so that a
   known session's lookup boxes nothing *)
let last_seq t ~client_id =
  match Hashtbl.find t.sessions client_id with s -> s | exception Not_found -> -1

let bump t ~client_id ~seq =
  if client_id >= 0 then Hashtbl.replace t.sessions client_id seq;
  t.applied <- t.applied + 1

(* One command under one session identity. A [Batch] entry carries its own
   per-element identities, so applying it whole and applying its elements
   one by one are the same sequence of [apply_cmd] calls — the QCheck
   batched-vs-sequential property pins this. *)
let rec apply_cmd t ~cmd ~client_id ~seq =
  let duplicate = client_id >= 0 && seq <= last_seq t ~client_id in
  match cmd with
  | Types.Nop -> None
  | Types.Batch subs ->
    Array.iter
      (fun (b : Types.bcmd) ->
        ignore (apply_cmd t ~cmd:b.b_cmd ~client_id:b.b_client ~seq:b.b_seq))
      subs;
    None
  | Types.Tx_prepare { txid; writes } ->
    if duplicate then
      (* deterministic re-answer: prepared iff still staged *)
      Some (if Hashtbl.mem t.staged txid then "ok" else "conflict")
    else begin
      bump t ~client_id ~seq;
      let conflicting =
        List.exists
          (fun (k, _) ->
            match Hashtbl.find_opt t.locks k with
            | Some holder -> holder <> txid
            | None -> false)
          writes
      in
      if conflicting then Some "conflict"
      else begin
        List.iter (fun (k, _) -> Hashtbl.replace t.locks k txid) writes;
        Hashtbl.replace t.staged txid writes;
        Some "ok"
      end
    end
  | Types.Tx_commit { txid } ->
    if not duplicate then begin
      bump t ~client_id ~seq;
      (match Hashtbl.find_opt t.staged txid with
      | Some writes ->
        List.iter
          (fun (k, v) ->
            replace t k v;
            Hashtbl.remove t.locks k)
          writes;
        Hashtbl.remove t.staged txid
      | None -> ())
    end;
    Some "ok"
  | Types.Tx_abort { txid } ->
    if not duplicate then begin
      bump t ~client_id ~seq;
      (match Hashtbl.find_opt t.staged txid with
      | Some writes ->
        List.iter (fun (k, _) -> Hashtbl.remove t.locks k) writes;
        Hashtbl.remove t.staged txid
      | None -> ())
    end;
    Some "ok"
  | Types.Get { key } ->
    if not duplicate then bump t ~client_id ~seq;
    find t key
  | Types.Put { key; value } ->
    if not duplicate then begin
      replace t key value;
      bump t ~client_id ~seq
    end;
    None

let apply t (e : Types.entry) = apply_cmd t ~cmd:e.cmd ~client_id:e.client_id ~seq:e.seq

let get t key = find t key
let size t = t.n_keys
let applied_count t = t.applied

let locked t key = Hashtbl.find_opt t.locks key
let staged_count t = Hashtbl.length t.staged

let digest t =
  let acc = ref 0 in
  Array.iteri (fun i k -> if k != vacant then acc := !acc lxor Hashtbl.hash (k, t.vals.(i))) t.keys;
  !acc
