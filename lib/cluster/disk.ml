open Sim

type t = {
  node_id : int;
  base_latency : Time.span;
  bandwidth_mb_s : float;
  mutable bandwidth_factor : float;
  station : Station.t;
  mutable writes : int;
  mutable fsyncs : int;
}

let fsync_latency = Time.us 150

let reset t =
  t.bandwidth_factor <- 1.0;
  t.writes <- 0;
  t.fsyncs <- 0;
  Station.reset t.station

let create sched ~node_id ?(base_latency = Time.us 80) ?(bandwidth_mb_s = 200.0) () =
  let t =
    {
      node_id;
      base_latency;
      bandwidth_mb_s;
      bandwidth_factor = 1.0;
      station = Station.create sched ~servers:1 ~name:(Printf.sprintf "disk%d" node_id) ();
      writes = 0;
      fsyncs = 0;
    }
  in
  reset t;
  t

let bytes_per_us t = t.bandwidth_mb_s *. t.bandwidth_factor *. 1e6 /. 1e6
(* MB/s = bytes/us numerically *)

let transfer_time t bytes = Time.of_us_f (float_of_int bytes /. bytes_per_us t)

let io t ~label ~work =
  let event = Depfast.Event.disk_completion ~label ~node:t.node_id () in
  ignore (Station.submit t.station ~event ~work ());
  event

let write t ~bytes =
  t.writes <- t.writes + 1;
  io t ~label:"disk.write" ~work:(t.base_latency + transfer_time t bytes)

let read t ~bytes = io t ~label:"disk.read" ~work:(t.base_latency + transfer_time t bytes)

let fsync t =
  t.fsyncs <- t.fsyncs + 1;
  io t ~label:"disk.fsync" ~work:fsync_latency

let write_count t = t.writes
let fsync_count t = t.fsyncs

let reset_stats t =
  t.writes <- 0;
  t.fsyncs <- 0

let set_bandwidth_factor t f = t.bandwidth_factor <- f
let station t = t.station
