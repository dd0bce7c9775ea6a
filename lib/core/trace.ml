type outcome = Ready | Timed_out

(* The ring is three columns indexed by slot: [ints] holds [stride] ints
   per record (the fields below), [events] the event waited on — kept so
   peer/staller analysis can run lazily, on read — and [names] the
   waiting coroutine's name, a string the coroutine shares with every
   record it makes. Recording writes fields in place, so a wait costs no
   heap record. The columns start small and double up to [capacity]; they
   are replaced together, so they sit in one immutable record behind one
   mutable field. *)
type cols = { ints : int array; events : Event.t array; names : string array }

let stride = 7
let f_cid = 0
let f_node = 1
let f_k = 2
let f_n = 3
let f_start = 4
let f_end = 5
let f_outcome = 6

type t = {
  mutable enabled : bool;
  capacity : int;
  mutable cols : cols;
  mutable start : int;  (* slot of the oldest record; 0 until the ring wraps *)
  mutable len : int;
  mutable dropped : int;
  mutable subscribers : (int -> unit) list;
}

let default_capacity = 1 lsl 16
let initial_slots = 32  (* 32 * stride ints stay under the minor heap's block limit *)

let make_cols slots =
  {
    ints = Array.make (slots * stride) 0;
    events = Array.make slots Event.dummy;
    names = Array.make slots "";
  }

let create ?(capacity = default_capacity) ?(enabled = false) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { enabled; capacity; cols = make_cols 0; start = 0; len = 0; dropped = 0; subscribers = [] }

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let is_enabled t = t.enabled
let dropped t = t.dropped
let wait_count t = t.len

(* Double the columns, up to [capacity]. Only a full ring below capacity
   grows, and a ring only wraps at capacity, so records sit in slots
   [0, len) and copy across unchanged. *)
let grow t =
  let r = t.cols in
  let slots = Array.length r.events in
  let r' = make_cols (min t.capacity (if slots = 0 then initial_slots else 2 * slots)) in
  Array.blit r.ints 0 r'.ints 0 (slots * stride);
  Array.blit r.events 0 r'.events 0 slots;
  Array.blit r.names 0 r'.names 0 slots;
  t.cols <- r'

let rec notify i = function
  | [] -> ()
  | f :: rest ->
    f i;
    notify i rest

let record t ~cid ~node ~coroutine ev ~quorum_k ~quorum_n ~t_start ~t_end outcome =
  if t.enabled then begin
    if t.len = Array.length t.cols.events && t.len < t.capacity then grow t;
    let r = t.cols in
    let slots = Array.length r.events in
    let s =
      if t.len = slots then begin
        (* full at capacity: overwrite the oldest record (drop-oldest) *)
        let s = t.start in
        t.start <- (if s + 1 = slots then 0 else s + 1);
        t.dropped <- t.dropped + 1;
        s
      end
      else begin
        (* not yet wrapped, so [start] is 0 *)
        let s = t.len in
        t.len <- s + 1;
        s
      end
    in
    let b = s * stride in
    r.ints.(b + f_cid) <- cid;
    r.ints.(b + f_node) <- node;
    r.ints.(b + f_k) <- quorum_k;
    r.ints.(b + f_n) <- quorum_n;
    r.ints.(b + f_start) <- t_start;
    r.ints.(b + f_end) <- t_end;
    r.ints.(b + f_outcome) <- (match outcome with Ready -> 0 | Timed_out -> 1);
    r.events.(s) <- ev;
    r.names.(s) <- coroutine;
    notify (t.len - 1) t.subscribers
  end

(* Records occupy slots [0, len) unless the ring wrapped, in which case
   len is the whole ring: either way filling [0, len) releases them. *)
let clear t =
  Array.fill t.cols.events 0 t.len Event.dummy;
  Array.fill t.cols.names 0 t.len "";
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0

let slot t i =
  if i < 0 || i >= t.len then invalid_arg "Trace: record index out of range";
  let s = t.start + i in
  let slots = Array.length t.cols.events in
  if s >= slots then s - slots else s

let field t i f = t.cols.ints.((slot t i * stride) + f)
let cid t i = field t i f_cid
let node t i = field t i f_node
let quorum_k t i = field t i f_k
let quorum_n t i = field t i f_n
let t_start t i = field t i f_start
let t_end t i = field t i f_end
let outcome t i = if field t i f_outcome = 0 then Ready else Timed_out
let event t i = t.cols.events.(slot t i)
let coroutine t i = t.cols.names.(slot t i)
let on_wait t f = t.subscribers <- f :: t.subscribers

type wait = {
  cid : int;
  node : int;
  coroutine : string;
  event : Event.t;
  quorum_k : int;
  quorum_n : int;
  t_start : Sim.Time.t;
  t_end : Sim.Time.t;
  outcome : outcome;
}

let get t i =
  {
    cid = cid t i;
    node = node t i;
    coroutine = coroutine t i;
    event = event t i;
    quorum_k = quorum_k t i;
    quorum_n = quorum_n t i;
    t_start = t_start t i;
    t_end = t_end t i;
    outcome = outcome t i;
  }

let waits t = List.init t.len (get t)
let event_id (w : wait) = Event.id w.event
let event_kind (w : wait) = Event.kind w.event
let event_label (w : wait) = Event.label w.event
let peers (w : wait) = Event.peers w.event
let stallers (w : wait) = Event.stallers w.event
