open Sim

(* Runtime observation hooks for the schedule-space sanitizer (lib/check):
   coroutine lifecycle and the park/wake/resume protocol around every wait.
   [None] in steady state — each call site pays one match. *)
type wake = Wake_fire | Wake_timeout

type monitor = {
  on_spawn : cid:int -> node:int -> name:string -> unit;
  on_park : cid:int -> node:int -> name:string -> Event.t -> unit;
      (** the coroutine suspended on a not-yet-ready event *)
  on_wake : cid:int -> Event.t -> wake -> unit;
      (** the wakeup was delivered (resume posted / timeout fired) *)
  on_resume : cid:int -> unit;  (** the continuation actually runs again *)
  on_done : cid:int -> unit;  (** the body returned *)
}

type outcome = Ready | Timed_out

(* A coroutine and its parking slot: it parks on at most one event, so the
   resume thunk and the fire and timeout wakes are built with the context,
   every wait reuses the slot, and every timed wait re-arms the one timer
   the context owns (allocated at its first timed wait). A context whose
   body returned goes back to its scheduler's pool, as does every context
   at [reset], and a later [spawn] restamps it (cid, node, name, tag,
   body), keeping its wakes and its timer: the wakes guard against stale
   calls as below, so a reused context's park ignores everything an
   earlier coroutine's parks left behind. The fire wake is the park's
   fire observer: in the event's waiter slot when that is free, else
   consed onto its observer list. A timeout or [reset] drops it from
   either, so no event holds a stale wake and a later fire of an event a
   park timed out on resumes nothing. The timeout wake acts only for the
   current arm of a park still timed ([park_span] is reset when a park
   ends), so the loser of fire vs timeout, or a timeout explore mode
   hoisted before the fire re-parked the coroutine, is a no-op. A fire
   wake acts only while it is its context's own: [reset] replaces it, so
   no wake handed out before (a [held] park's) resumes the reused
   context. The wakes close over the context, so [take_ctx] sets
   them on the record it built: a [let rec] would allocate the record
   twice. A sleep or a yield parks on the never-fired [napping] event,
   and the context's own [resume_ready] ends it, posted at once or armed
   on the owned timer, so neither builds a closure or an entry. A [held]
   park registers nowhere: whoever holds its fire wake ends it. *)
type ctx = {
  mutable cid : int;
  mutable node : int;
  mutable name : string;
  mutable tag : Engine.tag;
  mutable body : unit -> unit;  (* set by [spawn] until the body starts, else [no_body] *)
  mutable resume_ready : unit -> unit;
  mutable fire_wake : unit -> unit;
  mutable timeout_wake : unit -> unit;
  mutable park_ev : Event.t;
  mutable park_span : Time.span;  (* -1 = untimed, or the park ended; [held] *)
  mutable park_start : Time.t;
  mutable park_k : (outcome, unit) Effect.Deep.continuation;
  mutable park_timer : Engine.timer;  (* [Engine.unarmed] until the first timed park *)
}

type t = {
  engine : Engine.t;
  trace_rec : Trace.t;
  mutable current : ctx;  (* [no_ctx] outside coroutines *)
  mutable next_cid : int;
  mutable monitor : monitor option;
  mutable coro_handler : (unit, unit) Effect.Deep.handler;  (* built at the first spawn *)
  mutable free : ctx array;  (* finished contexts, a stack: the live prefix *)
  mutable n_free : int;
  mutable built : ctx array;  (* every context built (live prefix), as long as [free] *)
  mutable n_built : int;
  mutable node_tags : Engine.tag array;  (* [On_node n] at [n], built once each *)
}

(* every suspension: the running coroutine's slot holds the wait *)
type _ Effect.t += E_park : outcome Effect.t

(* a never-resumed continuation: what an empty slot holds, so no option box *)
let no_k : (outcome, unit) Effect.Deep.continuation =
  let got : (outcome, unit) Effect.Deep.continuation option ref = ref None in
  let effc (type a) (e : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option =
    match e with E_park -> Some (fun k -> got := Some k) | _ -> None
  in
  Effect.Deep.match_with (fun () -> ignore (Effect.perform E_park)) () { retc = ignore; exnc = raise; effc };
  Option.get !got

(* compared physically: a context with no body left to start, no fire wake *)
let no_body () = ()
let no_wake () = ()

let make_ctx () =
  { cid = 0; node = -1; name = ""; tag = Engine.Anon; body = no_body; resume_ready = ignore;
    fire_wake = no_wake; timeout_wake = ignore; park_ev = Event.dummy; park_span = -1;
    park_start = Time.zero; park_k = no_k; park_timer = Engine.unarmed }

let no_ctx = make_ctx ()
let held = -2

(* what a sleeping or yielding coroutine parks on: never fired, so only
   the context's own wake ends the park. [park_span] holds the sleep's
   delay, or -1 for a yield *)
let napping = Event.signal ~label:"nap" ()
let no_handler : (unit, unit) Effect.Deep.handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) }

let engine t = t.engine
let trace t = t.trace_rec
let now t = Engine.now t.engine
let set_monitor t m = t.monitor <- m
let current_node t = t.current.node
let current_coroutine t = t.current.name

let resume : type a. t -> ctx -> (a, unit) Effect.Deep.continuation -> a -> unit =
 fun t ctx k v ->
  let saved = t.current in
  t.current <- ctx;
  Effect.Deep.continue k v;
  t.current <- saved

(* O(1) and allocation-free: arity fields are counters on the event, the
   fields go straight into the trace's columns, and peer/staller analysis
   is deferred to whoever reads the record (Trace is lazy) *)
let record_wait t ctx ~outcome =
  if Trace.is_enabled t.trace_rec then
    let ev = ctx.park_ev in
    let k, n =
      match Event.kind ev with
      | Event.Quorum | Event.And_ | Event.Or_ ->
        (Event.required ev, Event.child_count ev)
      | Event.Signal | Event.Timer | Event.Rpc | Event.Disk -> (1, 1)
    in
    Trace.record t.trace_rec ~cid:ctx.cid ~node:ctx.node ~coroutine:ctx.name ev ~quorum_k:k
      ~quorum_n:n ~t_start:ctx.park_start ~t_end:(now t)
      (match outcome with Ready -> Trace.Ready | Timed_out -> Trace.Timed_out)

(* the context's posted wake: start the body [spawn] left, or resume the
   park whose event fired *)
let resume_ready t ctx =
  if ctx.body != no_body then begin
    let f = ctx.body in
    ctx.body <- no_body;
    let saved = t.current in
    t.current <- ctx;
    Effect.Deep.match_with f () t.coro_handler;
    t.current <- saved
  end
  else if ctx.park_ev == napping then begin
    (* a sleep or a yield: untraced, and no monitor sees it *)
    ctx.park_span <- -1;
    resume t ctx ctx.park_k Ready
  end
  else begin
    (match t.monitor with Some m -> m.on_resume ~cid:ctx.cid | None -> ());
    record_wait t ctx ~outcome:Ready;
    resume t ctx ctx.park_k Ready
  end

(* the park's event fired: end the park and post the resume *)
let fired t ctx =
  if ctx.park_span >= 0 then begin
    ctx.park_span <- -1;
    Engine.cancel t.engine ctx.park_timer
  end;
  (match t.monitor with
  | Some m -> m.on_wake ~cid:ctx.cid ctx.park_ev Wake_fire
  | None -> ());
  Engine.post_tag t.engine ctx.tag ctx.resume_ready

(* the park's timer fired: end the park, unless this is a stale arm *)
let timed_out t ctx =
  if ctx.park_span >= 0 && Engine.is_firing t.engine ctx.park_timer then begin
    ctx.park_span <- -1;
    Event.drop_waiter ctx.park_ev ctx.fire_wake;
    (match t.monitor with
    | Some m ->
      m.on_wake ~cid:ctx.cid ctx.park_ev Wake_timeout;
      m.on_resume ~cid:ctx.cid
    | None -> ());
    record_wait t ctx ~outcome:Timed_out;
    resume t ctx ctx.park_k Timed_out
  end

(* a park allocates only when the event's waiter slot is taken (the cons
   of its fire wake) and at a coroutine's first timed park (its timer
   entry). A nap posts, or arms the owned timer with, the context's own
   wake *)
let park t ctx k =
  ctx.park_start <- now t;
  if ctx.park_ev == napping then begin
    ctx.park_k <- k;
    if ctx.park_span < 0 then Engine.post_tag t.engine ctx.tag ctx.resume_ready
    else
      ctx.park_timer <-
        Engine.reschedule t.engine ctx.park_timer ~delay:ctx.park_span ctx.tag ctx.resume_ready
  end
  else if Event.is_ready ctx.park_ev then begin
    ctx.park_span <- -1;
    record_wait t ctx ~outcome:Ready;
    resume t ctx k Ready
  end
  else begin
    (match t.monitor with
    | Some m -> m.on_park ~cid:ctx.cid ~node:ctx.node ~name:ctx.name ctx.park_ev
    | None -> ());
    ctx.park_k <- k;
    if ctx.park_span <> held then Event.on_fire ctx.park_ev ctx.fire_wake;
    if ctx.park_span >= 0 then
      ctx.park_timer <-
        Engine.reschedule t.engine ctx.park_timer ~delay:ctx.park_span ctx.tag ctx.timeout_wake
  end

(* the body returned: let go of its last event and continuation, and pool
   the context *)
let release t ctx =
  ctx.park_ev <- Event.dummy;
  ctx.park_k <- no_k;
  t.free.(t.n_free) <- ctx;
  t.n_free <- t.n_free + 1

(* one handler serves every coroutine of [t]: it runs while [current] is
   the coroutine that performed the effect (or returned). A body that
   raises is not pooled *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let on_park = Some (fun k -> park t t.current k) in
  {
    retc =
      (fun () ->
        let ctx = t.current in
        (match t.monitor with Some m -> m.on_done ~cid:ctx.cid | None -> ());
        release t ctx);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with E_park -> on_park | _ -> None);
  }

let create ?trace engine =
  let trace_rec = match trace with Some tr -> tr | None -> Trace.create () in
  { engine; trace_rec; current = no_ctx; next_cid = 0; monitor = None; coro_handler = no_handler;
    free = [||]; n_free = 0; built = [||]; n_built = 0; node_tags = [||] }

(* every context back to the pool, with nothing of its coroutine: its
   fire wake leaves the event it parked on, its next timed park arms a
   fresh timer, and the engine's reset took its posted resume *)
let reset t =
  t.current <- no_ctx;
  t.next_cid <- 0;
  Array.blit t.built 0 t.free 0 t.n_built;
  t.n_free <- t.n_built;
  for i = 0 to t.n_built - 1 do
    let ctx = t.built.(i) in
    Event.drop_waiter ctx.park_ev ctx.fire_wake;
    ctx.fire_wake <- no_wake;
    ctx.name <- "";
    ctx.body <- no_body;
    ctx.park_ev <- Event.dummy;
    ctx.park_k <- no_k;
    ctx.park_timer <- Engine.unarmed
  done

(* [a] with twice the room (16 at first): the contexts alive at the peak *)
let grown a =
  let bigger = Array.make (max 16 (2 * Array.length a)) no_ctx in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* a pooled context (kept by [built], so its pool slot needs no clearing),
   or a fresh one; either way with a fire wake of its own *)
let take_ctx t =
  let ctx =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      let ctx = make_ctx () in
      ctx.resume_ready <- (fun () -> resume_ready t ctx);
      ctx.timeout_wake <- (fun () -> timed_out t ctx);
      if t.n_built = Array.length t.built then begin
        t.built <- grown t.built;
        t.free <- grown t.free
      end;
      t.built.(t.n_built) <- ctx;
      t.n_built <- t.n_built + 1;
      ctx
    end
  in
  (if ctx.fire_wake == no_wake then
     let rec wake () = if ctx.fire_wake == wake then fired t ctx in
     ctx.fire_wake <- wake);
  ctx

(* a coroutine's engine tag: its node's, shared by every coroutine there *)
let tag_of t node =
  if node < 0 then Engine.Anon
  else begin
    if node >= Array.length t.node_tags then
      t.node_tags <-
        Array.init (max (node + 1) (2 * Array.length t.node_tags)) (fun n -> Engine.On_node n);
    t.node_tags.(node)
  end

(* the one spawn path; the node tag is passed bare, so a spawn boxes no
   option for it *)
let spawn_on t ~node ?(name = "coroutine") f =
  if t.coro_handler == no_handler then t.coro_handler <- make_handler t;
  t.next_cid <- t.next_cid + 1;
  let ctx = take_ctx t in
  ctx.cid <- t.next_cid;
  ctx.node <- node;
  ctx.name <- name;
  ctx.tag <- tag_of t node;
  ctx.body <- f;
  (match t.monitor with Some m -> m.on_spawn ~cid:ctx.cid ~node ~name | None -> ());
  Engine.post_tag t.engine ctx.tag ctx.resume_ready

let spawn t ?(node = -1) ?name f = spawn_on t ~node ?name f

let spawn_here t ?name f =
  let node = current_node t in
  match name with
  | Some _ -> spawn_on t ~node ?name f
  | None -> spawn_on t ~node ~name:(current_coroutine t ^ "/child") f

(* fill the running coroutine's slot, then suspend on it *)
let park_current t ev span =
  let c = t.current in
  if c == no_ctx then invalid_arg "Sched: wait outside a coroutine";
  c.park_ev <- ev;
  c.park_span <- span;
  Effect.perform E_park

let wait t ev = match park_current t ev (-1) with Ready -> () | Timed_out -> assert false
let wait_timeout t ev span = park_current t ev (max 0 span)
let wake t = t.current.fire_wake
let hold t ev = match park_current t ev held with Ready -> () | Timed_out -> assert false
(* a sleep (span >= 0) or a yield (-1): the slot parks on [napping] *)
let nap t span =
  match park_current t napping span with Ready -> () | Timed_out -> assert false

let sleep t span = nap t (max 0 span)
let yield t = nap t (-1)

let timer t span =
  let ev = Event.timer_kind ~label:"timer" () in
  ignore (Engine.schedule t.engine ~delay:span (fun () -> Event.fire ev));
  ev

let run ?until t = Engine.run ?until t.engine
