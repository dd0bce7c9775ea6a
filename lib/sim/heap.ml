(* Indexed 4-ary min-heap on [(time, seq)].

   The entries are the handles, and each records its slot in [arr], so a
   cancel removes its entry at once.
   Four children per node halve a binary heap's depth, so a push or a
   cancel sifts half as far, and a pop compares up to four children per
   level; on the engine's traffic the 4-ary heap measured faster than the
   binary one (DESIGN.md, "Timer queue").

   Determinism: the seq is drawn afresh at every arm and no two live
   entries share one, so [(time, seq)] is a total order and the pop order
   does not depend on the heap's shape. *)

let arity = 4

(* [Nil] stands for "no entry" wherever an option would allocate *)
type 'a handle =
  | Nil
  | Entry of {
      mutable time : Time.t;
      mutable seq : int;
      mutable value : 'a;  (* the filler once cancelled or cleared *)
      mutable idx : int;  (* slot in [arr]; -1 in no heap *)
    }

let no_handle = Nil

type 'a t = {
  mutable arr : 'a handle array;  (* empty until the first push *)
  mutable size : int;  (* entries in [arr.(0 .. size - 1)] *)
  mutable seq : int;
  mutable pos : Time.t;  (* time of the last pop; pushes are clamped to it *)
  filler : 'a;
}

let create filler = { arr = [||]; size = 0; seq = 0; pos = Time.zero; filler }
let is_empty t = t.size = 0
let size t = t.size
let pos t = t.pos

let entry_lt a b =
  match (a, b) with
  | Entry a, Entry b -> a.time < b.time || (a.time = b.time && a.seq < b.seq)
  | _ -> false

(* put [n] in slot [i] *)
let set t i n =
  t.arr.(i) <- n;
  match n with Entry e -> e.idx <- i | Nil -> ()

(* the hole at [i] moves up while [n] sorts before its parent, then takes [n] *)
let rec sift_up t n i =
  if i > 0 && entry_lt n t.arr.((i - 1) / arity) then begin
    let p = (i - 1) / arity in
    set t i t.arr.(p);
    sift_up t n p
  end
  else set t i n

(* the hole at [i] moves down while [n] sorts after its least child *)
let rec sift_down t n i =
  let c = (arity * i) + 1 in
  if c >= t.size then set t i n
  else begin
    let last = if c + arity < t.size then c + arity - 1 else t.size - 1 in
    let m = ref c in
    for j = c + 1 to last do
      if entry_lt t.arr.(j) t.arr.(!m) then m := j
    done;
    if entry_lt t.arr.(!m) n then begin
      set t i t.arr.(!m);
      sift_down t n !m
    end
    else set t i n
  end

(* insert the entry [n], in no heap, its time already clamped, under the next seq *)
let arm t n =
  match n with
  | Nil -> ()
  | Entry e ->
    e.seq <- t.seq;
    t.seq <- t.seq + 1;
    if t.size = Array.length t.arr then begin
      let arr = Array.make (max 16 (2 * t.size)) Nil in
      Array.blit t.arr 0 arr 0 t.size;
      t.arr <- arr
    end;
    t.size <- t.size + 1;
    sift_up t n (t.size - 1)

let push t ~time value =
  let n = Entry { time = (if time < t.pos then t.pos else time); seq = 0; value; idx = -1 } in
  arm t n;
  n

(* take the entry in slot [i] out, filling the hole with the last entry *)
let remove_at t i =
  t.size <- t.size - 1;
  let last = t.arr.(t.size) in
  t.arr.(t.size) <- Nil;
  if i < t.size then
    if i > 0 && entry_lt last t.arr.((i - 1) / arity) then sift_up t last i else sift_down t last i

let cancel t h =
  match h with
  | Entry e when e.idx >= 0 ->
    remove_at t e.idx;
    e.idx <- -1;
    e.value <- t.filler
  | _ -> ()

let armed = function Entry e -> e.idx >= 0 | Nil -> false

let rearm t h ~time value =
  cancel t h;
  match h with
  | Entry e ->
    e.time <- (if time < t.pos then t.pos else time);
    e.value <- value;
    arm t h;
    h
  | Nil -> push t ~time value

let next_time_or t ~default =
  if t.size = 0 then default else match t.arr.(0) with Entry e -> e.time | Nil -> default

(* remove and return the earliest entry, or Nil; it keeps its payload *)
let take_handle t =
  if t.size = 0 then Nil
  else begin
    let n = t.arr.(0) in
    remove_at t 0;
    (match n with
    | Entry e ->
      e.idx <- -1;
      t.pos <- e.time
    | Nil -> ());
    n
  end

let pop t = match take_handle t with Entry e -> Some (e.time, e.value) | Nil -> None
let take_or t ~default = match take_handle t with Entry e -> e.value | Nil -> default
let seq = function Entry e -> e.seq | Nil -> invalid_arg "Heap.seq"
let value = function Entry e -> e.value | Nil -> invalid_arg "Heap.value"
let time = function Entry e -> e.time | Nil -> invalid_arg "Heap.time"

(* back to [create]'s state, keeping the array already grown; nothing
   the heap held stays reachable from it *)
let clear t =
  for i = 0 to t.size - 1 do
    (match t.arr.(i) with
    | Entry e ->
      e.idx <- -1;
      e.value <- t.filler
    | Nil -> ());
    t.arr.(i) <- Nil
  done;
  t.size <- 0;
  t.seq <- 0;
  t.pos <- Time.zero
