let dummy : Types.entry = { term = 0; index = 0; cmd = Types.Nop; client_id = -1; seq = 0 }

type t = {
  mutable entries : Types.entry array;
  mutable len : int;
  gen : int ref;  (* truncation generation; shared with every View cut here *)
}
(* entries.(i) holds the entry at raft index i+1; slots >= len are [dummy] *)

(* the backing store starts on the major heap (1024 slots > the minor-alloc
   limit) and grows 4x: a log that reaches steady state stops copying *)
let initial_capacity = 1024

let create ?(capacity = initial_capacity) () =
  { entries = Array.make (max 8 capacity) dummy; len = 0; gen = ref 0 }

let last_index t = t.len

let last_term t = if t.len = 0 then 0 else t.entries.(t.len - 1).Types.term

let term_at t i =
  if i = 0 then Some 0
  else if i < 0 || i > t.len then None
  else Some t.entries.(i - 1).Types.term

let get t i = if i < 1 || i > t.len then None else Some t.entries.(i - 1)

let grow t =
  let bigger = Array.make (4 * Array.length t.entries) dummy in
  Array.blit t.entries 0 bigger 0 t.len;
  t.entries <- bigger

let append t (e : Types.entry) =
  if e.Types.index <> t.len + 1 then
    invalid_arg
      (Printf.sprintf "Rlog.append: index %d but last is %d" e.Types.index t.len);
  if t.len = Array.length t.entries then grow t;
  Array.unsafe_set t.entries t.len e;
  t.len <- t.len + 1

let truncate_from t i =
  if i >= 1 && i <= t.len then begin
    Array.fill t.entries (i - 1) (t.len - (i - 1)) dummy;
    t.len <- i - 1;
    (* invalidate every outstanding view: the slots just blanked (and any
       slot later re-appended over) may be referenced by in-flight ships *)
    incr t.gen
  end

let generation t = !(t.gen)

let slice_array t ~from ~max =
  if from < 1 || from > t.len then [||]
  else
    let stop = min t.len (from + max - 1) in
    Array.sub t.entries (from - 1) (stop - from + 1)

let length t = t.len

let matches t ~prev_index ~prev_term =
  match term_at t prev_index with Some tm -> tm = prev_term | None -> false

module View = struct
  type nonrec t = Types.eview

  exception Stale

  let length = Types.view_len
  let valid = Types.view_valid

  let bytes v =
    if not (valid v) then raise Stale;
    Types.view_bytes v
end

let view t ~from ~max =
  if from < 1 || from > t.len || max <= 0 then
    { Types.v_store = t.entries; v_off = 0; v_len = 0; v_gen = !(t.gen); v_live = t.gen }
  else
    let stop = min t.len (from + max - 1) in
    {
      Types.v_store = t.entries;
      v_off = from - 1;
      v_len = stop - from + 1;
      v_gen = !(t.gen);
      v_live = t.gen;
    }
