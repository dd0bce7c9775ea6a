type t = { label : string option; mutable current : Event.t }  (* boxed once *)

let fresh label = Event.signal ?label ()

(* a fresh event: whoever waited on the old one belongs to a finished run *)
let reset t = t.current <- fresh t.label

let create ?(label = "condvar") () =
  let t = { label = Some label; current = Event.dummy } in
  reset t;
  t

let wait sched t = Sched.wait sched t.current
let wait_timeout sched t span = Sched.wait_timeout sched t.current span

let broadcast t =
  let ev = t.current in
  t.current <- fresh t.label;
  Event.fire ev

let event t = t.current
