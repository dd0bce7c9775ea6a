(* Hierarchical timer wheel with a heap fallback for far-future deadlines.

   Levels are 32 slots wide; the slot width at level [l] is [32^l] us, so the
   wheel covers [32^levels] us (~17.9 min) from the current position. One slot
   holds exactly one "tick" of its level at any moment (ticks only approach as
   the position advances, they never wrap past a live entry), so the first
   non-empty slot in tick order holds the level's minimum.

   Pops drive everything: popping from a level >= 1 slot re-places that slot's
   siblings relative to the new position (the cascade), which lands them at a
   strictly lower level because they share the popped entry's tick. Peeks
   never cascade — they only scan — so a peek can never misplace an entry
   that a later push would have outrun.

   The lists are intrusive and doubly linked: every entry carries the
   [prev] and [next] links of the one list it is on (a slot or the due
   queue), so a push allocates the entry and nothing else, pops, peeks and
   cascades allocate nothing, and a cancel unlinks the entry at once. An
   entry off every list (fired, cancelled or cleared) can be re-armed: its
   owner keeps one entry for a timer it arms over and over. Two
   memoisations keep steady-state pops cheap:

   - Each level memoises its minimum entry (its slot is derivable from its
     time). The memo survives pops from *other* levels: a pop only moves
     [pos] up to the global minimum, never past a live entry, so a level's
     min is unchanged until that level itself is mutated — a push into it, a
     cancel of the memoised entry, or a pop/cascade touching it.

   - A level-0 slot is a single microsecond, so its entries all share the
     current minimum time and pop in seq order. The first pop from such a
     slot relinks the siblings into the [due] queue in seq order; while the
     queue is non-empty its head is the global minimum and a pop is O(1).
     Same-instant pushes append at [due_last] (their seq is the largest
     yet), keeping the queue sorted.

   A cancelled entry lets go of its payload at once: [cancel] overwrites it
   with the filler [create] was given. Only far-heap entries are cancelled
   lazily: they stay in the heap, marked, and are dropped when they
   surface, so re-arming one takes a fresh entry.

   Determinism: entries carry a global sequence number, drawn afresh at
   every arm, and every comparison (within a slot, across levels, and
   against the far heap) is on [(time, seq)], so pop order is exactly that
   of the plain binary heap. *)

let bits = 5
let slots_per_level = 1 lsl bits
let levels = 6
let mask = slots_per_level - 1

(* An entry's place, packed under its seq in [key]: a wheel level
   [0 .. levels - 1] (the due queue counts as level 0), live in the far
   heap, cancelled but still in the far heap, or on no list *)
let place_bits = 4
let place_mask = (1 lsl place_bits) - 1
let in_far = levels
let dead_in_far = levels + 1
let unlinked = levels + 2

(* the handle is the entry itself: one allocation per push, none per
   re-arm. [Nil] ends a list and stands for "no entry" wherever an option
   would allocate. *)
type 'a node =
  | Nil
  | Entry of {
      mutable time : Time.t;
      mutable key : int;  (* [seq lsl place_bits lor place]: orders like the seq *)
      mutable value : 'a;  (* the filler once cancelled *)
      mutable prev : 'a node;  (* links in the slot or due list holding it *)
      mutable next : 'a node;
    }

type 'a handle = 'a node

let no_handle = Nil

type 'a t = {
  mutable seq : int;
  mutable alive : int;
  mutable pos : Time.t;  (* time of the last pop; pushes are clamped to it *)
  slots : 'a node array array;
      (* level rows start as the shared [empty] row and materialise on first
         placement, keeping [create] cheap (an engine is created per
         simulation, and most only ever touch one or two levels) *)
  empty : 'a node array;
  counts : int array;  (* entries per level, the due queue's in level 0's *)
  filler : 'a;  (* what a cancelled entry's payload is overwritten with *)
  cands : 'a node array;  (* per-level memo: the level's min entry; Nil = stale *)
  mutable due : 'a node;  (* current-microsecond drain, ascending seq; head = next pop *)
  mutable due_last : 'a node;  (* last entry of [due]; Nil iff [due] is *)
  far : 'a node Heap.t;
}

let create filler =
  let empty = Array.make slots_per_level Nil in
  {
    seq = 0;
    alive = 0;
    pos = Time.zero;
    slots = Array.make levels empty;
    empty;
    counts = Array.make levels 0;
    filler;
    cands = Array.make levels Nil;
    due = Nil;
    due_last = Nil;
    far = Heap.create ();
  }

let is_empty t = t.alive = 0
let size t = t.alive
let pos t = t.pos
let set_place n p = match n with Entry e -> e.key <- (e.key land lnot place_mask) lor p | Nil -> ()

(* [(time, seq)] order; [Nil] sorts after every entry *)
let entry_lt a b =
  match (a, b) with
  | Entry a, Entry b -> a.time < b.time || (a.time = b.time && a.key < b.key)
  | Entry _, Nil -> true
  | Nil, _ -> false

let slot_of time l = (time lsr (bits * l)) land mask

let rec place t n l =
  match n with
  | Nil -> ()
  | Entry e ->
    if l = levels then begin
      set_place n in_far;
      e.prev <- Nil;
      e.next <- Nil;
      ignore (Heap.push t.far ~time:e.time n)
    end
    else if (e.time lsr (bits * l)) - (t.pos lsr (bits * l)) <= mask then begin
      set_place n l;
      let row = t.slots.(l) in
      let row =
        if row != t.empty then row
        else begin
          let r = Array.make slots_per_level Nil in
          t.slots.(l) <- r;
          r
        end
      in
      let idx = slot_of e.time l in
      let head = row.(idx) in
      (match head with Entry h -> h.prev <- n | Nil -> ());
      e.prev <- Nil;
      e.next <- head;
      row.(idx) <- n;
      t.counts.(l) <- t.counts.(l) + 1;
      (* a valid memo only improves: [n] smaller means [n] is the new min;
         a stale memo stays stale (nothing cheap to compare against) *)
      match t.cands.(l) with
      | Entry _ as b when entry_lt n b -> t.cands.(l) <- n
      | _ -> ()
    end
    else place t n (l + 1)

(* link the unlinked entry [n], its time already clamped, under the next seq *)
let arm t n =
  match n with
  | Nil -> ()
  | Entry e -> (
    e.key <- t.seq lsl place_bits;
    t.seq <- t.seq + 1;
    t.alive <- t.alive + 1;
    match t.due_last with
    | Entry last when e.time = t.pos ->
      (* same-instant push while the current microsecond drains: this
         entry's seq is the largest yet, so it pops after everything
         queued (at level 0, as its key already says) *)
      last.next <- n;
      e.prev <- t.due_last;
      t.due_last <- n;
      t.counts.(0) <- t.counts.(0) + 1
    | _ -> place t n 0)

let push t ~time value =
  let time = if time < t.pos then t.pos else time in
  let n = Entry { time; key = 0; value; prev = Nil; next = Nil } in
  arm t n;
  n

(* take the linked entry [n] off its slot or due list *)
let unlink t n =
  match n with
  | Nil -> ()
  | Entry e ->
    let l = e.key land place_mask in
    (match e.prev with
    | Entry p -> p.next <- e.next
    | Nil -> if t.due == n then t.due <- e.next else t.slots.(l).(slot_of e.time l) <- e.next);
    (match e.next with Entry x -> x.prev <- e.prev | Nil -> if t.due_last == n then t.due_last <- e.prev);
    e.prev <- Nil;
    e.next <- Nil;
    set_place n unlinked;
    t.alive <- t.alive - 1;
    t.counts.(l) <- t.counts.(l) - 1;
    if t.cands.(l) == n then t.cands.(l) <- Nil

let cancel t h =
  match h with
  | Entry e ->
    let p = e.key land place_mask in
    if p < levels then begin
      unlink t h;
      e.value <- t.filler
    end
    else if p = in_far then begin
      (* it stays in the heap until it surfaces ([far_top]) *)
      set_place h dead_in_far;
      e.value <- t.filler;
      t.alive <- t.alive - 1
    end
  | Nil -> ()

let armed = function
  | Entry e ->
    let p = e.key land place_mask in
    p < levels || p = in_far
  | Nil -> false

let rearm t h ~time value =
  cancel t h;
  match h with
  | Entry e when e.key land place_mask = unlinked ->
    e.time <- (if time < t.pos then t.pos else time);
    e.value <- value;
    arm t h;
    h
  | _ -> push t ~time value

(* the far heap's earliest live entry, dropping cancelled ones as they
   surface; Nil if none *)
let rec far_top t =
  match Heap.peek_or t.far ~default:Nil with
  | Entry e as n when e.key land place_mask = dead_in_far ->
    ignore (Heap.take_or t.far ~default:Nil);
    set_place n unlinked;
    far_top t
  | n -> n

let rec slot_min best n =
  match n with Nil -> best | Entry e -> slot_min (if entry_lt n best then n else best) e.next

(* min of the first non-empty slot in tick order from slot [c + d]. Only
   called when the level has an entry, so it always finds one. *)
let rec scan_row row c d =
  if d > mask then Nil
  else match row.((c + d) land mask) with Nil -> scan_row row c (d + 1) | head -> slot_min Nil head

let level_candidate t l = scan_row t.slots.(l) ((t.pos lsr (bits * l)) land mask) 0

(* level of the minimum slot entry, or -1 if all levels are empty; tracks
   the running best as a plain int (the memo array holds the entries),
   refreshing stale memos as it goes. Only called with the due queue
   empty, so level 0's count is its slots'. *)
let rec best_slot_level t l bl =
  if l >= levels then bl
  else begin
    let bl =
      if t.counts.(l) = 0 then bl
      else begin
        (match t.cands.(l) with Nil -> t.cands.(l) <- level_candidate t l | Entry _ -> ());
        match t.cands.(l) with
        | Nil -> bl (* unreachable: the level has entries *)
        | c -> if bl < 0 || entry_lt c t.cands.(bl) then l else bl
      end
    in
    best_slot_level t (l + 1) bl
  end

let next_time_or t ~default =
  match t.due with
  | Entry e -> e.time
  | Nil -> (
    let bl = best_slot_level t 0 (-1) in
    match ((if bl < 0 then Nil else t.cands.(bl)), far_top t) with
    | Entry e, Entry f -> if f.time < e.time then f.time else e.time
    | Entry e, Nil | Nil, Entry e -> e.time
    | Nil, Nil -> default)

(* ---- in-place list surgery for the due queue; nothing here allocates ---- *)

let rec length acc = function Nil -> acc | Entry e -> length (acc + 1) e.next
let set_next n x = match n with Entry e -> e.next <- x | Nil -> ()

(* append the seq-merge of [a] and [b] after [tail] *)
let rec merge_after tail a b =
  match (a, b) with
  | Nil, rest | rest, Nil -> set_next tail rest
  | Entry ea, Entry eb ->
    if ea.key < eb.key then begin
      set_next tail a;
      merge_after a ea.next b
    end
    else begin
      set_next tail b;
      merge_after b a eb.next
    end

let merge a b =
  match (a, b) with
  | Nil, rest | rest, Nil -> rest
  | Entry ea, Entry eb ->
    if ea.key < eb.key then begin
      merge_after a ea.next b;
      a
    end
    else begin
      merge_after b a eb.next;
      b
    end

(* detach the list after its first [k] >= 1 entries and return it *)
let rec cut n k =
  match n with
  | Nil -> Nil
  | Entry e ->
    if k <= 1 then begin
      let rest = e.next in
      e.next <- Nil;
      rest
    end
    else cut e.next (k - 1)

(* merge sort on seq of a [len]-entry list, following [next] only *)
let rec sort_seq n len =
  if len <= 1 then n
  else begin
    let half = len / 2 in
    let rest = cut n half in
    merge (sort_seq n half) (sort_seq rest (len - half))
  end

(* point each [prev] of list [n] back along it; returns the last entry *)
let rec link_back prev n = match n with Nil -> prev | Entry e -> e.prev <- prev; link_back n e.next

(* hand the current microsecond's entries (all sharing the popped time) to
   the due queue in seq order. Slots mix pushes (prepended, so newest
   first) with cascaded entries, but rarely hold more than the popped
   entry, so a plain sort is enough. The queue is empty here: [take] only
   reaches the slot scan once it is. *)
let activate_due t es =
  let es = sort_seq es (length 0 es) in
  t.due <- es;
  t.due_last <- link_back Nil es

(* bookkeeping for removing entry [n]; callers then read its time/value *)

let drain_far t n =
  match n with
  | Nil -> ()
  | Entry e ->
    ignore (Heap.take_or t.far ~default:Nil);
    set_place n unlinked;
    t.alive <- t.alive - 1;
    t.pos <- e.time

(* cascade: the siblings share the popped entry's level-[l] tick, which is
   now the current one, so each re-places at a strictly lower level;
   [place] keeps the destination levels' memos consistent *)
let rec cascade t l n =
  match n with
  | Nil -> ()
  | Entry x ->
    let nx = x.next in
    t.counts.(l) <- t.counts.(l) - 1;
    place t n 0;
    cascade t l nx

let drain_slot t n l =
  match n with
  | Nil -> ()
  | Entry e ->
    unlink t n;
    t.pos <- e.time;
    t.cands.(l) <- Nil;
    let idx = slot_of e.time l in
    let es = t.slots.(l).(idx) in
    t.slots.(l).(idx) <- Nil;
    if l > 0 then cascade t l es else activate_due t es

(* the next slot-or-far entry, with ties broken on (time, seq): a far entry
   left beyond the horizon at push time can come due as [pos] advances and
   tie with a younger wheel entry *)
let take_scan t =
  let bl = best_slot_level t 0 (-1) in
  let c = if bl < 0 then Nil else t.cands.(bl) in
  let f = far_top t in
  match c with
  | Entry _ when not (entry_lt f c) ->
    drain_slot t c bl;
    c
  | _ ->
    drain_far t f;
    f

(* remove and return the earliest entry, or Nil *)
let take t =
  match t.due with
  | Entry e as n ->
    unlink t n;
    t.pos <- e.time;
    n
  | Nil -> take_scan t

let pop t = match take t with Entry e -> Some (e.time, e.value) | Nil -> None
let take_handle t = take t
let take_or t ~default = match take t with Entry e -> e.value | Nil -> default
let seq = function Entry e -> e.key lsr place_bits | Nil -> invalid_arg "Wheel.seq"
let value = function Entry e -> e.value | Nil -> invalid_arg "Wheel.value"
let time = function Entry e -> e.time | Nil -> invalid_arg "Wheel.time"

(* take every entry of list [n] off it and release its payload, so a
   handle that survived a [clear] cancels as a no-op and re-arms *)
let rec kill t n =
  match n with
  | Nil -> ()
  | Entry e ->
    let nx = e.next in
    set_place n unlinked;
    e.value <- t.filler;
    e.prev <- Nil;
    e.next <- Nil;
    kill t nx

let rec kill_far t =
  match Heap.take_or t.far ~default:Nil with
  | Nil -> ()
  | n ->
    kill t n;
    kill_far t

(* back to [create]'s state, keeping the level rows already materialised;
   nothing the wheel held stays reachable from it *)
let clear t =
  for l = 0 to levels - 1 do
    let row = t.slots.(l) in
    if row != t.empty then
      for i = 0 to mask do
        kill t row.(i);
        row.(i) <- Nil
      done
  done;
  kill t t.due;
  kill_far t;
  Array.fill t.counts 0 levels 0;
  Array.fill t.cands 0 levels Nil;
  t.seq <- 0;
  t.alive <- 0;
  t.pos <- Time.zero;
  t.due <- Nil;
  t.due_last <- Nil
