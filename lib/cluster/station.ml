open Sim

(* One server: the event of the job in service ([Event.dummy] when idle),
   the completion thunk scheduled for it, built once when the server is
   first used, and the timer that thunk is armed on, re-armed for every
   job, so a job allocates neither a closure nor a timer entry. *)
type slot = {
  mutable s_event : Depfast.Event.t;
  mutable s_busy : bool;
  mutable s_done : unit -> unit;
  mutable s_timer : Engine.timer;
}

type integral = { mutable busy_integral : float }  (* server-us; all-float, so unboxed *)

type t = {
  sched : Depfast.Sched.t;
  name : string;
  servers : int;
  mutable speed : float;
  mutable load : Memory.load;  (* read at each job start *)
  mutable slots : slot array;  (* [||] until the first job; then [servers] long *)
  mutable n_slots : int;  (* slots built so far *)
  (* the FIFO of waiting jobs: a ring of (work, event) in two arrays,
     power-of-two capacity, empty until a job first has to wait *)
  mutable q_work : Time.span array;
  mutable q_ev : Depfast.Event.t array;
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
   slots built so far stay, their timers cleared with the engine's and
   re-armed in place; the queue keeps its capacity; the memory load wired
   by [set_memory] stays *)
let reset t =
  t.speed <- 1.0;
  for i = 0 to t.n_slots - 1 do
    let s = t.slots.(i) in
    s.s_event <- Depfast.Event.dummy;
    s.s_busy <- false
  done;
  Array.fill t.q_ev 0 (Array.length t.q_ev) Depfast.Event.dummy;
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
      servers;
      speed = 1.0;
      load = { Memory.penalty = 1.0 };
      slots = [||];
      n_slots = 0;
      q_work = [||];
      q_ev = [||];
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

let enqueue t work ev =
  let cap = Array.length t.q_ev in
  if t.q_len = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let works = Array.make ncap 0 and evs = Array.make ncap Depfast.Event.dummy in
    for i = 0 to t.q_len - 1 do
      let j = (t.q_head + i) land (cap - 1) in
      works.(i) <- t.q_work.(j);
      evs.(i) <- t.q_ev.(j)
    done;
    t.q_work <- works;
    t.q_ev <- evs;
    t.q_head <- 0
  end;
  let j = (t.q_head + t.q_len) land (Array.length t.q_ev - 1) in
  t.q_work.(j) <- work;
  t.q_ev.(j) <- ev;
  t.q_len <- t.q_len + 1

(* index of the first idle slot from [i], or [n_slots] if all are busy *)
let rec idle_from t i =
  if i = t.n_slots || not t.slots.(i).s_busy then i else idle_from t (i + 1)

(* put [ev]'s job of nominal duration [work] into service on slot [s] *)
let start t s work ev =
  account t;
  t.busy <- t.busy + 1;
  s.s_event <- ev;
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
  let ev = s.s_event in
  s.s_event <- Depfast.Event.dummy;
  Depfast.Event.fire ev;
  (* the fire's observers may have submitted synchronously and taken the
     freed server: start the next waiting job only into a free one *)
  if t.q_len > 0 && t.busy < t.servers then begin
    let j = t.q_head in
    let work = t.q_work.(j) and ev = t.q_ev.(j) in
    t.q_ev.(j) <- Depfast.Event.dummy;
    t.q_head <- (j + 1) land (Array.length t.q_ev - 1);
    t.q_len <- t.q_len - 1;
    start t (free_slot t) work ev
  end

(* an idle server, building one if every slot built so far is in service;
   callers guarantee [busy < servers] *)
and free_slot t =
  let i = idle_from t 0 in
  if i < t.n_slots then t.slots.(i)
  else begin
    let s =
      { s_event = Depfast.Event.dummy; s_busy = false; s_done = ignore; s_timer = Engine.unarmed }
    in
    s.s_done <- (fun () -> complete t s);
    if t.n_slots = 0 then t.slots <- Array.make t.servers s;
    t.slots.(i) <- s;
    t.n_slots <- i + 1;
    s
  end

let submit t ?event ~work () =
  let event =
    match event with
    | Some ev -> ev
    | None -> Depfast.Event.signal ~label:t.name ()
  in
  (* a job that arrives while others wait queues behind them, even if a
     completion has just freed a server and not yet refilled it *)
  if t.busy < t.servers && t.q_len = 0 then start t (free_slot t) work event
  else enqueue t work event;
  event

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
