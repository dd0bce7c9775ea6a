type timer = (unit -> unit) Wheel.handle

(* Provenance of a unit of work, for the schedule explorer (lib/check).
   Tags are what make nondeterminism *reifiable*: when a chooser is
   installed, every step with more than one enabled alternative becomes an
   explicit choice over tagged transitions, and the explorer's DPOR-lite
   pruner keys independence on the tags' footprints. *)
type tag =
  | Anon  (* unknown provenance: conflicts with everything *)
  | Coro of int * int  (* coroutine (cid, node); node -1 = untagged *)
  | On_node of int  (* node-local housekeeping (disk, station, timers) *)
  | Link of int * int  (* delivery on the directed network link src -> dst *)

type chooser = tag array -> int

(* Explore mode: the ready FIFO is replaced by an indexed vector so the
   chooser can run *any* enabled thunk, and same-deadline timer ties are
   hoisted into that vector as they come due. Only live when a chooser is
   installed; the steady-state engine pays one [None] check per call. *)
type explore = {
  choose : chooser;
  mutable observe : (tag -> unit) option;
      (* called with every transition about to run — including singleton
         steps the chooser never sees, so per-step attribution (the
         probe cross-check) stays exact *)
  mutable ex_tags : tag array;
  mutable ex_fns : (unit -> unit) array;
  mutable ex_n : int;
  timer_tags : (int, tag) Hashtbl.t;  (* wheel seq -> tag *)
}

type t = {
  mutable clock : Time.t;
  mutable r_ring : (unit -> unit) array;
      (* the ready FIFO as a ring: power-of-two capacity, empty until the
         first post (an engine is built per explored schedule) *)
  mutable r_head : int;  (* index of the oldest posted thunk *)
  mutable r_len : int;
  timers : (unit -> unit) Wheel.t;
  root_rng : Rng.t;
  mutable ex : explore option;
}

let create ?(seed = 1L) () =
  {
    clock = Time.zero;
    r_ring = [||];
    r_head = 0;
    r_len = 0;
    timers = Wheel.create ();
    root_rng = Rng.create seed;
    ex = None;
  }

let now t = t.clock
let rng t = t.root_rng
let split_rng t = Rng.split t.root_rng

let no_fn () = ()

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

let ex_push ex tag f =
  let cap = Array.length ex.ex_fns in
  if ex.ex_n = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let fns = Array.make ncap no_fn in
    let tags = Array.make ncap Anon in
    Array.blit ex.ex_fns 0 fns 0 ex.ex_n;
    Array.blit ex.ex_tags 0 tags 0 ex.ex_n;
    ex.ex_fns <- fns;
    ex.ex_tags <- tags
  end;
  ex.ex_fns.(ex.ex_n) <- f;
  ex.ex_tags.(ex.ex_n) <- tag;
  ex.ex_n <- ex.ex_n + 1

(* remove index i preserving the order of the rest: choice identity across
   re-runs with the same prefix must be deterministic *)
let ex_take ex i =
  let f = ex.ex_fns.(i) in
  for j = i to ex.ex_n - 2 do
    ex.ex_fns.(j) <- ex.ex_fns.(j + 1);
    ex.ex_tags.(j) <- ex.ex_tags.(j + 1)
  done;
  ex.ex_n <- ex.ex_n - 1;
  ex.ex_fns.(ex.ex_n) <- no_fn;
  ex.ex_tags.(ex.ex_n) <- Anon;
  f

let set_chooser t choose =
  (match t.ex with
  | Some _ -> invalid_arg "Engine.set_chooser: a chooser is already installed"
  | None -> ());
  let ex =
    {
      choose;
      observe = None;
      ex_tags = [||];
      ex_fns = [||];
      ex_n = 0;
      timer_tags = Hashtbl.create 64;
    }
  in
  (* adopt anything already posted (setup work queued before exploration) *)
  while t.r_len > 0 do
    ex_push ex Anon (ready_take t)
  done;
  t.ex <- Some ex

let set_step_observer t observe =
  match t.ex with
  | None -> invalid_arg "Engine.set_step_observer: no chooser installed"
  | Some ex -> ex.observe <- observe

let exploring t = t.ex <> None

let post_tag t tag f =
  match t.ex with None -> ready_add t f | Some ex -> ex_push ex tag f

let post t f = post_tag t Anon f

let schedule_tag t ~delay tag f =
  let delay = if delay < 0 then 0 else delay in
  let h = Wheel.push t.timers ~time:(Time.add t.clock delay) f in
  (match t.ex with
  | Some ex when tag != Anon -> Hashtbl.replace ex.timer_tags (Wheel.seq h) tag
  | _ -> ());
  h

let schedule t ~delay f = schedule_tag t ~delay Anon f

let schedule_at t ~time f =
  let time = if time < t.clock then t.clock else time in
  Wheel.push t.timers ~time f

let cancel t h = Wheel.cancel t.timers h

let ready_count t =
  match t.ex with None -> t.r_len | Some ex -> ex.ex_n

let pending t = ready_count t + Wheel.size t.timers

(* sentinel for the allocation-free timer pop; compared physically, so a
   user-scheduled [fun () -> ()] can never collide with it *)
let no_timer () = ()

let step_default t =
  if t.r_len > 0 then begin
    (ready_take t) ();
    true
  end
  else begin
    let f = Wheel.take_or t.timers ~default:no_timer in
    if f == no_timer then false
    else begin
      t.clock <- Wheel.pos t.timers;
      f ();
      true
    end
  end

(* move every timer due at the minimum deadline into the choice set: ties
   are concurrent transitions, and the chooser sequences them (interleaved
   with whatever they enable) instead of inheriting wheel insertion order.
   A hoisted timer's handle is consumed, so a same-instant [cancel] of a
   tied sibling becomes a no-op — the thunk runs; the runtime's guarded
   wakeups (e.g. a wait's [resumed] flag) make that a visible no-op, which
   is exactly what the sanitizer wants to observe. *)
let hoist_due t ex =
  let tmin = Wheel.next_time_or t.timers ~default:(-1) in
  if tmin >= 0 then begin
    t.clock <- tmin;
    while Wheel.next_time_or t.timers ~default:(-1) = tmin do
      match Wheel.pop_handle t.timers with
      | Some h ->
        let seq = Wheel.seq h in
        let tag =
          match Hashtbl.find ex.timer_tags seq with
          | tg ->
            Hashtbl.remove ex.timer_tags seq;
            tg
          | exception Not_found -> Anon
        in
        ex_push ex tag (Wheel.value h)
      | None -> () (* unreachable: a live entry is due at [tmin] *)
    done
  end

let step_explore t ex =
  if ex.ex_n = 0 then hoist_due t ex;
  if ex.ex_n = 0 then false
  else begin
    let i =
      if ex.ex_n = 1 then 0
      else begin
        let i = ex.choose (Array.sub ex.ex_tags 0 ex.ex_n) in
        if i < 0 || i >= ex.ex_n then invalid_arg "Engine chooser: index out of range";
        i
      end
    in
    (match ex.observe with Some f -> f ex.ex_tags.(i) | None -> ());
    (ex_take ex i) ();
    true
  end

let step t = match t.ex with None -> step_default t | Some ex -> step_explore t ex

(* only advance past the deadline if posted (same-instant) work remains;
   timers beyond the deadline stay pending *)
let work_by t deadline =
  if ready_count t > 0 then t.clock <= deadline
  else begin
    let time = Wheel.next_time_or t.timers ~default:(-1) in
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
