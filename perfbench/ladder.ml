(* The unit-cost ladder: one public unit operation per rung, timed over a
   fixed count with its exact minor-heap allocation (Gc.minor_words deltas,
   not a regression estimate). The traced run multiplies these by the
   per-op counts of a real cell to reconcile each layer's share of the
   measured wall time. *)

open Util

type rung = {
  name : string;  (** per-layer metric name *)
  unit_ : string;  (** "ns" or "us" *)
  scale : float;  (** seconds -> unit_ *)
  n : int;  (** operations per batch *)
  batch : int -> unit;
}

let fresh () =
  let engine = Sim.Engine.create () in
  (engine, Depfast.Sched.create engine)

(* Rungs that queue work run it in chunks of at most [live] operations, so
   the queues stay as short as they are in a running cluster. *)
let live = 64

let chunks n f =
  let rec go left =
    if left > 0 then begin
      let k = min live left in
      f k;
      go (left - k)
    end
  in
  go n

let post n =
  let engine = Sim.Engine.create () in
  chunks n (fun k ->
      for _ = 1 to k do
        Sim.Engine.post engine ignore
      done;
      Sim.Engine.run engine)

let timer n =
  let engine = Sim.Engine.create () in
  chunks n (fun k ->
      for i = 1 to k do
        ignore (Sim.Engine.schedule engine ~delay:(1 + (i * 31 mod 997)) ignore)
      done;
      Sim.Engine.run engine)

let engine_create n =
  for _ = 1 to n do
    ignore (fresh ())
  done

(* spawn a coroutine that parks on a signal, fire it, resume it *)
let switch n =
  let _, sched = fresh () in
  chunks n (fun k ->
      let evs = Array.init k (fun _ -> Depfast.Event.signal ()) in
      Array.iter (fun ev -> Depfast.Sched.spawn sched (fun () -> Depfast.Sched.wait sched ev)) evs;
      Depfast.Sched.run sched;
      Array.iter Depfast.Event.fire evs;
      Depfast.Sched.run sched)

let quorum5 n =
  for _ = 1 to n do
    let q = Depfast.Event.quorum Depfast.Event.Majority in
    let cs = Array.init 5 (fun peer -> Depfast.Event.rpc_completion ~peer ()) in
    Array.iter (fun c -> Depfast.Event.add q ~child:c) cs;
    Array.iter Depfast.Event.fire cs;
    assert (Depfast.Event.is_ready q)
  done

(* n sequential calls from a client node to a serving node *)
let rpc_roundtrip n =
  let _, sched = fresh () in
  let rpc : (int, int) Cluster.Rpc.t =
    Cluster.Rpc.create sched ~latency:(Sim.Dist.Constant 100.0) ()
  in
  let a = Cluster.Node.create sched ~id:0 ~name:"a" () in
  let b = Cluster.Node.create sched ~id:1 ~name:"b" () in
  Cluster.Rpc.attach rpc a;
  Cluster.Rpc.serve rpc ~node:b ~handler:(fun ~src:_ x -> Some x);
  let answered = ref 0 in
  Cluster.Node.spawn a (fun () ->
      for i = 1 to n do
        let c = Cluster.Rpc.call rpc ~src:a ~dst:1 i in
        Depfast.Sched.wait sched (Cluster.Rpc.event c);
        if Cluster.Rpc.response c = Some i then incr answered
      done);
  Depfast.Sched.run sched;
  assert (!answered = n)

let station_submit n =
  let _, sched = fresh () in
  let st = Cluster.Station.create sched ~servers:4 ~name:"cpu" () in
  chunks n (fun k ->
      for _ = 1 to k do
        ignore (Cluster.Station.submit st ~work:(Sim.Time.us 10) ())
      done;
      Depfast.Sched.run sched);
  assert (Cluster.Station.completed_jobs st = n)

let disk_write_fsync n =
  let _, sched = fresh () in
  let d = Cluster.Disk.create sched ~node_id:0 () in
  chunks n (fun k ->
      for _ = 1 to k do
        ignore (Cluster.Disk.write d ~bytes:1024);
        ignore (Cluster.Disk.fsync d)
      done;
      Depfast.Sched.run sched);
  assert (Cluster.Disk.fsync_count d = n)

let value = String.make 1024 'v'
let keys = Array.init 1000 (Printf.sprintf "user%d")

let put_entry i =
  {
    Raft.Types.term = 1;
    index = i + 1;
    cmd = Raft.Types.Put { key = keys.(i mod 1000); value };
    client_id = i land 63;
    seq = i;
  }

(* the entries are built once, outside the timed batches, so the kv and
   log rungs time the state-machine update and the append alone *)
let entries = lazy (Array.init 200_000 put_entry)

let kv_apply n =
  let es = Lazy.force entries in
  let kv = Raft.Kv.create () in
  for i = 0 to n - 1 do
    ignore (Raft.Kv.apply kv es.(i))
  done

let rlog_append n =
  let es = Lazy.force entries in
  let log = Raft.Rlog.create () in
  for i = 0 to n - 1 do
    Raft.Rlog.append log es.(i)
  done

(* the leader's seal path: drain 64 queued commands into one Batch entry
   and append it to the log *)
let batch_drain n =
  let log = Raft.Rlog.create () in
  let q = Queue.create () in
  for b = 1 to n do
    for i = 1 to 64 do
      Queue.add
        { Raft.Types.b_cmd = Raft.Types.Put { key = keys.(i); value }; b_client = i; b_seq = b }
        q
    done;
    let subs = Array.init (Queue.length q) (fun _ -> Queue.pop q) in
    let e =
      { Raft.Types.term = 1; index = b; cmd = Raft.Types.Batch subs; client_id = -1; seq = 0 }
    in
    assert (Raft.Types.entry_bytes e > 0);
    Raft.Rlog.append log e
  done

(* one blocking Client.put after another on an idle, elected 3-node group *)
let client_put n =
  let engine, sched = fresh () in
  let g = Raft.Group.create sched ~n:3 () in
  Depfast.Sched.spawn sched (fun () -> Raft.Group.elect g 0);
  Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
  let c = List.hd (Raft.Group.make_clients g ~count:1 ()) in
  let ok = ref 0 and finished = ref false in
  Cluster.Node.spawn (Raft.Client.node c) (fun () ->
      for i = 1 to n do
        if Raft.Client.put c ~key:keys.(i mod 1000) ~value then incr ok
      done;
      finished := true);
  (* heartbeats never let the engine go idle: advance in slices *)
  while not !finished do
    Depfast.Sched.run ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 100)) sched
  done;
  assert (!ok = n)

let next_op =
  let wl = Workload.Ycsb.scaled ~records:10_000 Workload.Ycsb.update_heavy in
  let gen = Workload.Ycsb.make_gen wl (Sim.Rng.create 7L) in
  fun n ->
    for _ = 1 to n do
      ignore (Workload.Ycsb.next_op gen)
    done

let rungs ~tiny =
  let k x = if tiny then max 1 (x / 100) else x in
  [
    { name = "sim.post_ns"; unit_ = "ns"; scale = 1e9; n = k 200_000; batch = post };
    { name = "sim.timer_ns"; unit_ = "ns"; scale = 1e9; n = k 200_000; batch = timer };
    { name = "sim.engine_create_us"; unit_ = "us"; scale = 1e6; n = k 20_000; batch = engine_create };
    { name = "core.switch_ns"; unit_ = "ns"; scale = 1e9; n = k 50_000; batch = switch };
    { name = "core.quorum5_ns"; unit_ = "ns"; scale = 1e9; n = k 50_000; batch = quorum5 };
    { name = "cluster.rpc_roundtrip_us"; unit_ = "us"; scale = 1e6; n = k 20_000; batch = rpc_roundtrip };
    { name = "cluster.station_submit_ns"; unit_ = "ns"; scale = 1e9; n = k 100_000; batch = station_submit };
    { name = "cluster.disk_write_fsync_ns"; unit_ = "ns"; scale = 1e9; n = k 50_000; batch = disk_write_fsync };
    { name = "raft.kv_apply_ns"; unit_ = "ns"; scale = 1e9; n = k 100_000; batch = kv_apply };
    { name = "raft.rlog_append_ns"; unit_ = "ns"; scale = 1e9; n = k 200_000; batch = rlog_append };
    { name = "raft.batch_drain_ns"; unit_ = "ns"; scale = 1e9; n = k 5_000; batch = batch_drain };
    { name = "raft.client_put_us"; unit_ = "us"; scale = 1e6; n = k 2_000; batch = client_put };
    { name = "workload.next_op_ns"; unit_ = "ns"; scale = 1e9; n = k 200_000; batch = next_op };
  ]

(* (name, unit, value) for the cost and (name_words, "words", value) for
   the allocation of every rung *)
let measure ~tiny =
  List.concat_map
    (fun r ->
      fresh_heap ();
      let dt, words = unit_cost ~n:r.n r.batch in
      [
        metric r.name r.unit_ (dt *. r.scale);
        metric (r.name ^ "_words") "words" words;
      ])
    (rungs ~tiny)
