open Sim

(* One server: the job in service's event to fire and wake to call
   ([Event.dummy] and [ignore] when it has none, or idle), the completion
   thunk scheduled for it, built once when the server is first used, and
   the timer that thunk is armed on, re-armed for every job, so a job
   allocates neither a closure nor a timer entry. *)
type slot = {
  mutable s_event : Depfast.Event.t;
  mutable s_wake : unit -> unit;
  mutable s_busy : bool;
  mutable s_done : unit -> unit;
  mutable s_timer : Engine.timer;
}

type integral = { mutable busy_integral : float }  (* server-us; all-float, so unboxed *)

type t = {
  sched : Depfast.Sched.t;
  name : string;
  held : Depfast.Event.t;  (* what a waited charge parks on: never fired *)
  servers : int;
  mutable speed : float;
  mutable load : Memory.load;  (* read at each job start *)
  mutable slots : slot array;  (* [||] until the first job; then [servers] long *)
  mutable n_slots : int;  (* slots built so far *)
  (* the FIFO of waiting jobs: a ring of (work, event, wake) in three
     arrays, power-of-two capacity, empty until a job first has to wait *)
  mutable q_work : Time.span array;
  mutable q_ev : Depfast.Event.t array;
  mutable q_wake : (unit -> unit) array;
  mutable q_head : int;
  mutable q_len : int;
  mutable busy : int;
  (* utilization accounting *)
  acc : integral;
  mutable last_change : Time.t;
  mutable window_start : Time.t;
  mutable completed : int;
}

(* idle, nominal speed, nothing queued, a fresh utilization window. The
   slots built so far stay, each in-service job's completion cancelled (a
   no-op once the engine's reset cleared it) and the timer re-armed in
   place by the next job; the queue keeps its capacity; the memory load
   wired by [set_memory] stays *)
let reset t =
  t.speed <- 1.0;
  for i = 0 to t.n_slots - 1 do
    let s = t.slots.(i) in
    Engine.cancel (Depfast.Sched.engine t.sched) s.s_timer;
    s.s_event <- Depfast.Event.dummy;
    s.s_wake <- ignore;
    s.s_busy <- false
  done;
  Array.fill t.q_ev 0 (Array.length t.q_ev) Depfast.Event.dummy;
  Array.fill t.q_wake 0 (Array.length t.q_wake) ignore;
  t.q_head <- 0;
  t.q_len <- 0;
  t.busy <- 0;
  t.acc.busy_integral <- 0.0;
  t.last_change <- Sim.Engine.now (Depfast.Sched.engine t.sched);
  t.window_start <- t.last_change;
  t.completed <- 0

let create sched ?(servers = 1) ~name () =
  let t =
    {
      sched;
      name;
      held = Depfast.Event.signal ~label:name ();
      servers;
      speed = 1.0;
      load = { Memory.penalty = 1.0 };
      slots = [||];
      n_slots = 0;
      q_work = [||];
      q_ev = [||];
      q_wake = [||];
      q_head = 0;
      q_len = 0;
      busy = 0;
      acc = { busy_integral = 0.0 };
      last_change = Time.zero;
      window_start = Time.zero;
      completed = 0;
    }
  in
  reset t;
  t

let set_speed t f = t.speed <- f
let speed t = t.speed
let set_memory t m = t.load <- Memory.load m
let queue_length t = t.q_len
let busy_servers t = t.busy

let engine t = Depfast.Sched.engine t.sched

let account t =
  let now = Engine.now (engine t) in
  t.acc.busy_integral <- t.acc.busy_integral +. (float_of_int t.busy *. float_of_int (Time.diff now t.last_change));
  t.last_change <- now

(* the ring's column [a] unrolled from its head into [n] slots *)
let unrolled t a n fill =
  Array.init n (fun i -> if i < t.q_len then a.((t.q_head + i) land (Array.length a - 1)) else fill)

let enqueue t work ev wake =
  if t.q_len = Array.length t.q_ev then begin
    let n = max 8 (2 * t.q_len) in
    t.q_work <- unrolled t t.q_work n 0;
    t.q_ev <- unrolled t t.q_ev n Depfast.Event.dummy;
    t.q_wake <- unrolled t t.q_wake n ignore;
    t.q_head <- 0
  end;
  let j = (t.q_head + t.q_len) land (Array.length t.q_ev - 1) in
  t.q_work.(j) <- work;
  t.q_ev.(j) <- ev;
  t.q_wake.(j) <- wake;
  t.q_len <- t.q_len + 1

(* index of the first idle slot from [i], or [n_slots] if all are busy *)
let rec idle_from t i =
  if i = t.n_slots || not t.slots.(i).s_busy then i else idle_from t (i + 1)

(* put the job of nominal duration [work] into service on slot [s] *)
let start t s work ev wake =
  account t;
  t.busy <- t.busy + 1;
  s.s_event <- ev;
  s.s_wake <- wake;
  s.s_busy <- true;
  (* [Time.of_us_f] spelled out, and the penalty read from its record:
     an out-of-module call would box the float *)
  let dur = int_of_float (Float.round (float_of_int work *. t.speed *. t.load.penalty)) in
  s.s_timer <- Engine.reschedule (engine t) s.s_timer ~delay:dur Engine.Anon s.s_done

let rec complete t s =
  account t;
  t.busy <- t.busy - 1;
  t.completed <- t.completed + 1;
  s.s_busy <- false;
  let ev = s.s_event and wake = s.s_wake in
  s.s_event <- Depfast.Event.dummy;
  s.s_wake <- ignore;
  Depfast.Event.fire ev;
  wake ();
  (* the fire's observers may have submitted synchronously and taken the
     freed server: start the next waiting job only into a free one *)
  if t.q_len > 0 && t.busy < t.servers then begin
    let j = t.q_head in
    let work = t.q_work.(j) and ev = t.q_ev.(j) and wake = t.q_wake.(j) in
    t.q_ev.(j) <- Depfast.Event.dummy;
    t.q_wake.(j) <- ignore;
    t.q_head <- (j + 1) land (Array.length t.q_ev - 1);
    t.q_len <- t.q_len - 1;
    start t (free_slot t) work ev wake
  end

(* an idle server, building one if every slot built so far is in service;
   callers guarantee [busy < servers] *)
and free_slot t =
  let i = idle_from t 0 in
  if i < t.n_slots then t.slots.(i)
  else begin
    let s =
      { s_event = Depfast.Event.dummy; s_wake = ignore; s_busy = false; s_done = ignore;
        s_timer = Engine.unarmed }
    in
    s.s_done <- (fun () -> complete t s);
    if t.n_slots = 0 then t.slots <- Array.make t.servers s;
    t.slots.(i) <- s;
    t.n_slots <- i + 1;
    s
  end

(* a job that arrives while others wait queues behind them, even if a
   completion has just freed a server and not yet refilled it *)
let admit t work ev wake =
  if t.busy < t.servers && t.q_len = 0 then start t (free_slot t) work ev wake
  else enqueue t work ev wake

let submit t ?event ~work () =
  let ev = match event with Some ev -> ev | None -> Depfast.Event.signal ~label:t.name () in
  admit t work ev ignore;
  ev

let run t ~work =
  admit t work Depfast.Event.dummy (Depfast.Sched.wake t.sched);
  Depfast.Sched.hold t.sched t.held

let charge t ~work = admit t work Depfast.Event.dummy ignore

let utilization t =
  account t;
  let window = Time.diff t.last_change t.window_start in
  if window <= 0 then 0.0
  else t.acc.busy_integral /. (float_of_int t.servers *. float_of_int window)

let reset_stats t =
  account t;
  t.acc.busy_integral <- 0.0;
  t.window_start <- t.last_change;
  t.completed <- 0

let completed_jobs t = t.completed
