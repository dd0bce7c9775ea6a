type t = {
  duration : Sim.Time.span;
  completed : int;
  failed : int;
  shed : int;
  latency : Sim.Hist.t;
  leader_utilization : float;
  leader_crashed : bool;
  leader_fsyncs : int;
}

let throughput t =
  if t.duration <= 0 then 0.0
  else float_of_int t.completed /. Sim.Time.to_sec_f t.duration

let mean_latency_ms t = Sim.Hist.mean t.latency /. 1000.0
let p99_latency_ms t = Sim.Time.to_ms_f (Sim.Hist.p99 t.latency)
let shed_rate t =
  let offered = t.completed + t.failed + t.shed in
  if offered = 0 then 0.0 else float_of_int t.shed /. float_of_int offered

let fsyncs_per_op t =
  if t.completed = 0 then 0.0
  else float_of_int t.leader_fsyncs /. float_of_int t.completed

let ratio a b = if b = 0.0 then 0.0 else a /. b

let normalize t ~baseline =
  ( ratio (throughput t) (throughput baseline),
    ratio (mean_latency_ms t) (mean_latency_ms baseline),
    ratio (p99_latency_ms t) (p99_latency_ms baseline) )

let pp fmt t =
  Format.fprintf fmt
    "%.0f ops/s, avg %.2f ms, p99 %.2f ms (%d ok, %d failed, %d shed, leader cpu %.0f%%%s)"
    (throughput t) (mean_latency_ms t) (p99_latency_ms t) t.completed t.failed
    t.shed
    (100.0 *. t.leader_utilization)
    (if t.leader_crashed then ", LEADER CRASHED" else "")
