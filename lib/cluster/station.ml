open Sim

type job = { work : Time.span; event : Depfast.Event.t }

type integral = { mutable busy_integral : float }  (* server-us; all-float, so unboxed *)

type t = {
  sched : Depfast.Sched.t;
  name : string;
  servers : int;
  mutable speed : float;
  mutable penalty : unit -> float;
  queue : job Queue.t;
  mutable busy : int;
  (* utilization accounting *)
  acc : integral;
  mutable last_change : Time.t;
  mutable window_start : Time.t;
  mutable completed : int;
}

let create sched ?(servers = 1) ~name () =
  let now = Sim.Engine.now (Depfast.Sched.engine sched) in
  {
    sched;
    name;
    servers;
    speed = 1.0;
    penalty = (fun () -> 1.0);
    queue = Queue.create ();
    busy = 0;
    acc = { busy_integral = 0.0 };
    last_change = now;
    window_start = now;
    completed = 0;
  }

let name t = t.name
let servers t = t.servers
let set_speed t f = t.speed <- f
let speed t = t.speed
let set_penalty t f = t.penalty <- f
let queue_length t = Queue.length t.queue
let busy_servers t = t.busy

let engine t = Depfast.Sched.engine t.sched

let account t =
  let now = Engine.now (engine t) in
  t.acc.busy_integral <- t.acc.busy_integral +. (float_of_int t.busy *. float_of_int (Time.diff now t.last_change));
  t.last_change <- now

let rec start_job t job =
  account t;
  t.busy <- t.busy + 1;
  let dur =
    Time.of_us_f (float_of_int job.work *. t.speed *. t.penalty ())
  in
  ignore
    (Engine.schedule (engine t) ~delay:dur (fun () ->
         account t;
         t.busy <- t.busy - 1;
         t.completed <- t.completed + 1;
         Depfast.Event.fire job.event;
         if not (Queue.is_empty t.queue) then start_job t (Queue.pop t.queue)))

let submit t ?event ~work () =
  let event =
    match event with
    | Some ev -> ev
    | None -> Depfast.Event.signal ~label:t.name ()
  in
  let job = { work; event } in
  if t.busy < t.servers then start_job t job else Queue.add job t.queue;
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
