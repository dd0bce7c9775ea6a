type t = { label : string; mutable held : bool; queue : Event.t Queue.t }

(* unheld, no waiter: whoever queued belongs to a finished run *)
let reset t =
  t.held <- false;
  Queue.clear t.queue

let create ?(label = "mutex") () =
  let t = { label; held = false; queue = Queue.create () } in
  reset t;
  t

let lock sched t =
  if not t.held then t.held <- true
  else begin
    let ev = Event.signal ~label:t.label () in
    (* depfast-lint: allow unbounded-growth — waiter queue: drained by
       unlock's ownership hand-off, at most one entry per parked coroutine *)
    Queue.add ev t.queue;
    (* ownership is transferred by the firing unlock *)
    Sched.wait sched ev
  end

let unlock t =
  if not t.held then invalid_arg "Mutex.unlock: not locked";
  if Queue.is_empty t.queue then t.held <- false
  else Event.fire (Queue.pop t.queue)

let with_lock sched t f =
  lock sched t;
  match f () with
  | v ->
    unlock t;
    v
  | exception e ->
    unlock t;
    raise e

let locked t = t.held
