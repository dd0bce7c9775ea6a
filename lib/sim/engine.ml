type timer = (unit -> unit) Heap.handle

let unarmed = Heap.no_handle

(* Provenance of a unit of work, for the schedule explorer (lib/check).
   Tags are what make nondeterminism *reifiable*: when a chooser is
   installed, every step with more than one enabled alternative becomes an
   explicit choice over tagged transitions, and the explorer's DPOR-lite
   pruner keys independence on the tags' footprints. *)
type tag =
  | Anon  (* unknown provenance: conflicts with everything *)
  | On_node of int  (* work of a node: its coroutines, disk, station, timers *)
  | Link of int * int  (* delivery on the directed network link src -> dst *)

type chooser = tag array -> int -> int

(* Explore mode: the ready FIFO is replaced by an indexed vector so the
   chooser can run *any* enabled thunk, and same-deadline timer ties are
   hoisted into that vector as they come due. Only live when a chooser is
   installed; the steady-state engine pays one [None] check per call. *)
type explore = {
  choose : chooser;
  mutable ex_tags : tag array;
  mutable ex_fns : (unit -> unit) array;
  mutable ex_seqs : int array;  (* a hoisted timer's seq; -1 for posted work *)
  mutable ex_n : int;
  mutable tt_seqs : int array;
      (* pending tagged timers, unordered: timer seq here, tag in
         [tt_tags]. A tag leaves when its timer is hoisted or cancelled *)
  mutable tt_tags : tag array;
  mutable tt_n : int;
}

type t = {
  mutable clock : Time.t;
  mutable r_ring : (unit -> unit) array;
      (* the ready FIFO as a ring: power-of-two capacity, empty until the
         first post (an engine is built per explored schedule) *)
  mutable r_head : int;  (* index of the oldest posted thunk *)
  mutable r_len : int;
  timers : (unit -> unit) Heap.t;
  seed : int64;
  root_rng : Rng.t;
  mutable running : int;  (* seq of the timer whose thunk runs last or now *)
  mutable ex : explore option;
}

let no_fn () = ()

let create ?(seed = 1L) () =
  {
    clock = Time.zero;
    r_ring = [||];
    r_head = 0;
    r_len = 0;
    timers = Heap.create no_fn;
    seed;
    root_rng = Rng.create seed;
    running = -1;
    ex = None;
  }

let reset t =
  t.clock <- Time.zero;
  Array.fill t.r_ring 0 (Array.length t.r_ring) no_fn;
  t.r_len <- 0;
  Heap.clear t.timers;
  Rng.reseed t.root_rng t.seed;
  t.running <- -1;
  match t.ex with
  | None -> ()
  | Some ex ->
    Array.fill ex.ex_fns 0 ex.ex_n no_fn;
    ex.ex_n <- 0;
    ex.tt_n <- 0

let now t = t.clock
let rng t = t.root_rng
let split_rng t = Rng.split t.root_rng

(* double the ring, unrolling it so the oldest thunk lands at index 0 *)
let ready_grow t =
  let cap = Array.length t.r_ring in
  let ring = Array.make (if cap = 0 then 16 else 2 * cap) no_fn in
  for i = 0 to t.r_len - 1 do
    ring.(i) <- t.r_ring.((t.r_head + i) land (cap - 1))
  done;
  t.r_ring <- ring;
  t.r_head <- 0

let ready_add t f =
  if t.r_len = Array.length t.r_ring then ready_grow t;
  t.r_ring.((t.r_head + t.r_len) land (Array.length t.r_ring - 1)) <- f;
  t.r_len <- t.r_len + 1

(* oldest posted thunk; the ring must be non-empty *)
let ready_take t =
  let f = t.r_ring.(t.r_head) in
  t.r_ring.(t.r_head) <- no_fn;
  t.r_head <- (t.r_head + 1) land (Array.length t.r_ring - 1);
  t.r_len <- t.r_len - 1;
  f

(* [a] copied into twice the room (16 at first), padded with [fill] *)
let grown a fill =
  let b = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ex_push ex tag f seq =
  if ex.ex_n = Array.length ex.ex_fns then begin
    ex.ex_fns <- grown ex.ex_fns no_fn;
    ex.ex_tags <- grown ex.ex_tags Anon;
    ex.ex_seqs <- grown ex.ex_seqs (-1)
  end;
  ex.ex_fns.(ex.ex_n) <- f;
  ex.ex_tags.(ex.ex_n) <- tag;
  ex.ex_seqs.(ex.ex_n) <- seq;
  ex.ex_n <- ex.ex_n + 1

(* remove index i preserving the order of the rest: choice identity across
   re-runs with the same prefix must be deterministic. A hoisted timer's
   seq becomes the running one. *)
let ex_take t ex i =
  let f = ex.ex_fns.(i) in
  t.running <- ex.ex_seqs.(i);
  for j = i to ex.ex_n - 2 do
    ex.ex_fns.(j) <- ex.ex_fns.(j + 1);
    ex.ex_tags.(j) <- ex.ex_tags.(j + 1);
    ex.ex_seqs.(j) <- ex.ex_seqs.(j + 1)
  done;
  ex.ex_n <- ex.ex_n - 1;
  ex.ex_fns.(ex.ex_n) <- no_fn;
  ex.ex_tags.(ex.ex_n) <- Anon;
  f

let tag_timer ex seq tag =
  if ex.tt_n = Array.length ex.tt_seqs then begin
    ex.tt_seqs <- grown ex.tt_seqs 0;
    ex.tt_tags <- grown ex.tt_tags Anon
  end;
  ex.tt_seqs.(ex.tt_n) <- seq;
  ex.tt_tags.(ex.tt_n) <- tag;
  ex.tt_n <- ex.tt_n + 1

(* forget timer [seq]'s tag and return it ([Anon] if it had none),
   scanning down from index [i]; no closure, so a cancel allocates nothing *)
let rec untag_from ex seq i =
  if i < 0 then Anon
  else if ex.tt_seqs.(i) <> seq then untag_from ex seq (i - 1)
  else begin
    let tag = ex.tt_tags.(i) in
    let last = ex.tt_n - 1 in
    ex.tt_seqs.(i) <- ex.tt_seqs.(last);
    ex.tt_tags.(i) <- ex.tt_tags.(last);
    ex.tt_n <- last;
    tag
  end

(* from the newest: the timeout a firing wait cancels is usually among
   the last armed *)
let untag_timer ex seq = untag_from ex seq (ex.tt_n - 1)

let set_chooser t choose =
  (match t.ex with
  | Some _ -> invalid_arg "Engine.set_chooser: a chooser is already installed"
  | None -> ());
  let ex =
    { choose; ex_tags = [||]; ex_fns = [||]; ex_seqs = [||]; ex_n = 0; tt_seqs = [||];
      tt_tags = [||]; tt_n = 0 }
  in
  (* adopt anything already posted (setup work queued before exploration) *)
  while t.r_len > 0 do
    ex_push ex Anon (ready_take t) (-1)
  done;
  t.ex <- Some ex

let post_tag t tag f =
  match t.ex with None -> ready_add t f | Some ex -> ex_push ex tag f (-1)

let post t f = post_tag t Anon f

let reschedule t h ~delay tag f =
  let delay = if delay < 0 then 0 else delay in
  let h = Heap.rearm t.timers h ~time:(Time.add t.clock delay) f in
  (match t.ex with
  | Some ex when tag != Anon -> tag_timer ex (Heap.seq h) tag
  | _ -> ());
  h

let schedule_tag t ~delay tag f = reschedule t unarmed ~delay tag f

let schedule t ~delay f = schedule_tag t ~delay Anon f

let schedule_at t ~time f =
  let time = if time < t.clock then t.clock else time in
  Heap.push t.timers ~time f

(* a handle [reset] cleared is no longer armed: its seq may be a live
   timer's of the new run, whose tag must stay *)
let cancel t h =
  (match t.ex with
  | Some ex when Heap.armed h -> ignore (untag_timer ex (Heap.seq h))
  | _ -> ());
  Heap.cancel t.timers h

let ready_count t =
  match t.ex with None -> t.r_len | Some ex -> ex.ex_n

let pending t = ready_count t + Heap.size t.timers
let is_firing t h = h != unarmed && Heap.seq h = t.running

let step_default t =
  if t.r_len > 0 then begin
    (ready_take t) ();
    true
  end
  else begin
    let h = Heap.take_handle t.timers in
    if h == Heap.no_handle then false
    else begin
      t.clock <- Heap.pos t.timers;
      t.running <- Heap.seq h;
      Heap.value h ();
      true
    end
  end

(* move every timer due at the minimum deadline into the choice set: ties
   are concurrent transitions, and the chooser sequences them (interleaved
   with whatever they enable) instead of inheriting heap insertion order.
   A hoisted timer's handle is consumed, so a same-instant [cancel] of a
   tied sibling becomes a no-op — the thunk runs; the runtime's guarded
   wakeups (a timeout checks [is_firing] for its coroutine's current arm)
   make that a visible no-op, which is exactly what the sanitizer wants to
   observe. Each hoisted seq rides beside its thunk, since the entry may
   be re-armed before the thunk runs. *)
let hoist_due t ex =
  let tmin = Heap.next_time_or t.timers ~default:(-1) in
  if tmin >= 0 then begin
    t.clock <- tmin;
    while Heap.next_time_or t.timers ~default:(-1) = tmin do
      let h = Heap.take_handle t.timers in
      let seq = Heap.seq h in
      ex_push ex (untag_timer ex seq) (Heap.value h) seq
    done
  end

let step_explore t ex =
  if ex.ex_n = 0 then hoist_due t ex;
  if ex.ex_n = 0 then false
  else begin
    let i =
      if ex.ex_n = 1 then 0
      else begin
        let i = ex.choose ex.ex_tags ex.ex_n in
        if i < 0 || i >= ex.ex_n then invalid_arg "Engine chooser: index out of range";
        i
      end
    in
    (ex_take t ex i) ();
    true
  end

let step t = match t.ex with None -> step_default t | Some ex -> step_explore t ex

(* only advance past the deadline if posted (same-instant) work remains;
   timers beyond the deadline stay pending *)
let work_by t deadline =
  if ready_count t > 0 then t.clock <= deadline
  else begin
    let time = Heap.next_time_or t.timers ~default:(-1) in
    time >= 0 && time <= deadline
  end

let run ?until t =
  match until with
  | None ->
    while step t do
      ()
    done
  | Some deadline ->
    while work_by t deadline && step t do
      ()
    done;
    if t.clock < deadline && ready_count t = 0 then t.clock <- deadline
