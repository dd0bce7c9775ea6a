type t = { label : string option; mutable current : Event.t; mutable lent : bool }  (* boxed once *)

let fresh label = Event.signal ?label ()

(* a fresh event: whoever waited on the old one belongs to a finished run *)
let reset t =
  t.current <- fresh t.label;
  t.lent <- false

let create ?(label = "condvar") () =
  let t = { label = Some label; current = Event.dummy; lent = false } in
  reset t;
  t

let wait sched t = Sched.wait sched t.current
let wait_timeout sched t span = Sched.wait_timeout sched t.current span

(* only the scheduler's wakes observe an event [event] never handed out,
   and they post their resumes, so it is re-armed in place once fired; a
   lent one stays fired for its holders *)
let broadcast t =
  let ev = t.current in
  if t.lent then begin
    reset t;
    Event.fire ev
  end
  else begin
    Event.fire ev;
    Event.rearm ev
  end

let event t =
  t.lent <- true;
  t.current
