(* One Raft experiment cell, built from the layers' public constructors in
   the same order as [Harness.Runner.run_cell], so that the modelled
   results are identical to it; the benchmark only times the phases and
   reads public counters. *)

open Harness

type spec = {
  system : Runner.system;
  n : int;
  slow_count : int;
  fault : Cluster.Fault.kind option;
}

(* Counters of the replication path, read from public getters. Node-level
   arrays are indexed by position in [Raft.Group.nodes]. *)
type counters = {
  msgs : int;  (** delivered network messages *)
  units : int;  (** bytes-equivalent units on delivered messages *)
  dropped : int;  (** messages dropped by the network *)
  discarded : int;  (** responses arriving after their call was abandoned *)
  waits : int;  (** recorded waits, ring overwrites included *)
  writes : int array;
  fsyncs : int array;
  cpu_jobs : int array;
}

type probe = {
  stats : Depfast.Trace_stats.t;
  trace : Depfast.Trace.t;
  c_start : counters;  (** before the driver starts *)
  c_pre : counters;  (** 1 us before the driver resets the leader's windows *)
  c_end : counters;
  all_ops : int;  (** client ops issued over the whole driver run *)
  group : Raft.Group.t;
}

type result = {
  spec : spec;
  gen_setup_s : float;  (** YCSB generators and zipf constants *)
  bootstrap_s : float;  (** [Group.create] + bootstrap election (DepFastRaft) *)
  setup_s : float;  (** everything before the first op *)
  wall_s : float;  (** the closed-loop driver run, warmup included *)
  gc : Util.gc_delta;  (** over the driver run *)
  metrics : Workload.Metrics.t;
  agree : bool;  (** live replicas agree on the committed prefix *)
  probe : probe option;
}

let label spec =
  Printf.sprintf "%s n=%d %s" (Runner.system_name spec.system) spec.n
    (Runner.fault_name spec.fault)

(* The generators' set-up, timed on its own: [Workload.Driver.run] builds
   them again inside the run (a few ms against seconds of simulation). It
   draws from a scratch engine, never from the cell's. *)
let gen_setup (params : Params.t) =
  let wl = Params.workload params in
  let scratch = Sim.Engine.create ~seed:params.Params.seed () in
  let memo = Workload.Ycsb.make_memo () in
  for _ = 1 to params.Params.clients do
    ignore (Workload.Ycsb.make_gen ~memo wl (Sim.Engine.split_rng scratch))
  done

(* [Runner.build] for DepFastRaft, keeping the group for the counters *)
let build_depfast sched ~n ~cfg =
  let g = Raft.Group.create sched ~n ~cfg () in
  Depfast.Sched.spawn sched ~name:"bootstrap" (fun () -> Raft.Group.elect g 0);
  Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
  match Raft.Group.leader g with
  | Some s when Raft.Server.id s = 0 -> g
  | _ -> failwith "bootstrap election failed"

(* [count_ops] wraps each client to count the ops it issues (probe only) *)
let sut_of_group ?count_ops g =
  let leader = Raft.Group.server g 0 in
  let wrap (c : Workload.Driver.client) =
    match count_ops with
    | None -> c
    | Some count -> { c with Workload.Driver.run_op = (fun op -> count (); c.run_op op) }
  in
  {
    Workload.Sut.name = "DepFastRaft";
    leader_node = Raft.Server.node leader;
    follower_nodes = List.filter (fun nd -> Cluster.Node.id nd <> 0) g.Raft.Group.nodes;
    make_clients = (fun ~count -> List.map wrap (Runner.clients_of_group g ~count));
  }

let counters g trace =
  let t = Cluster.Rpc.net_totals g.Raft.Group.rpc in
  let per f = Array.of_list (List.map f g.Raft.Group.nodes) in
  {
    msgs = t.Cluster.Net.delivered;
    units = t.Cluster.Net.units;
    dropped = t.Cluster.Net.dropped;
    discarded = Cluster.Rpc.discarded_responses g.Raft.Group.rpc;
    waits = Depfast.Trace.wait_count trace + Depfast.Trace.dropped trace;
    writes = per (fun nd -> Cluster.Disk.write_count (Cluster.Node.disk nd));
    fsyncs = per (fun nd -> Cluster.Disk.fsync_count (Cluster.Node.disk nd));
    cpu_jobs = per (fun nd -> Cluster.Station.completed_jobs (Cluster.Node.cpu nd));
  }

(* Live replicas hold the same term at every index up to the lowest
   commit index among them. *)
let replicas_agree g =
  let live =
    List.filter (fun s -> Cluster.Node.alive (Raft.Server.node s)) g.Raft.Group.servers
  in
  match live with
  | [] -> false
  | s0 :: rest ->
    let upto = List.fold_left (fun a s -> min a (Raft.Server.commit_index s)) max_int live in
    let ok = ref (upto > 0) in
    for i = 1 to upto do
      let t0 = Raft.Rlog.term_at (Raft.Server.log s0) i in
      List.iter (fun s -> if Raft.Rlog.term_at (Raft.Server.log s) i <> t0 then ok := false) rest
    done;
    !ok

(* [probe] turns on the program's wait trace with per-label statistics and
   samples the counters; off, the cell is the plain [run_cell] model. *)
let run ?(probe = false) ~(params : Params.t) spec =
  let cfg = Raft.Config.default in
  let (), gen_setup_s = Util.time (fun () -> gen_setup params) in
  let all_ops = ref 0 in
  let (engine, sched, trace, stats, group, sut, bootstrap_s, clients), build_s =
    Util.time (fun () ->
        let engine = Sim.Engine.create ~seed:params.Params.seed () in
        let sched = Depfast.Sched.create engine in
        let trace = Depfast.Sched.trace sched in
        let stats =
          if probe then begin
            Depfast.Trace.enable trace;
            let ts = Depfast.Trace_stats.create Depfast.Trace_stats.By_label in
            Depfast.Trace_stats.attach ts trace;
            Some ts
          end
          else None
        in
        let group, sut, bootstrap_s =
          match spec.system with
          | Runner.Depfast_raft ->
            let g, dt = Util.time (fun () -> build_depfast sched ~n:spec.n ~cfg) in
            let count_ops = if probe then Some (fun () -> incr all_ops) else None in
            (Some g, sut_of_group ?count_ops g, dt)
          | sys -> (None, Runner.build sys sched ~n:spec.n ~cfg, 0.0)
        in
        (match spec.fault with
        | None -> ()
        | Some kind ->
          List.iteri
            (fun i v -> if i < spec.slow_count then ignore (Cluster.Fault.inject v kind))
            sut.Workload.Sut.follower_nodes);
        let clients = sut.Workload.Sut.make_clients ~count:params.Params.clients in
        (engine, sched, trace, stats, group, sut, bootstrap_s, clients))
  in
  let setup_s = gen_setup_s +. build_s in
  let sample =
    match (group, stats) with
    | Some g, Some _ ->
      let c_start = counters g trace in
      let c_pre = ref c_start in
      let at = Sim.Time.add (Sim.Engine.now engine) (params.Params.warmup - 1) in
      ignore (Sim.Engine.schedule_at engine ~time:at (fun () -> c_pre := counters g trace));
      Some (g, c_start, c_pre)
    | _ -> None
  in
  let (metrics, wall_s), gc =
    Util.with_gc (fun () ->
        Util.time (fun () ->
            Workload.Driver.run sched ~clients ~workload:(Params.workload params)
              ~warmup:params.Params.warmup ~duration:params.Params.duration
              ~leader_node:sut.Workload.Sut.leader_node ()))
  in
  let agree = match group with Some g -> replicas_agree g | None -> true in
  let probe =
    match (sample, stats) with
    | Some (g, c_start, c_pre), Some stats ->
      Some
        { stats; trace; c_start; c_pre = !c_pre; c_end = counters g trace; all_ops = !all_ops; group = g }
    | _ -> None
  in
  {
    spec;
    gen_setup_s;
    bootstrap_s;
    setup_s;
    wall_s;
    gc;
    metrics;
    agree;
    probe;
  }

let attempted r =
  let m = r.metrics in
  m.Workload.Metrics.completed + m.Workload.Metrics.failed + m.Workload.Metrics.shed

let not_ok r = r.metrics.Workload.Metrics.failed + r.metrics.Workload.Metrics.shed

(* The modelled outputs that must match [Runner.run_cell] exactly. *)
let model_key (m : Workload.Metrics.t) =
  ( m.Workload.Metrics.completed,
    m.Workload.Metrics.failed,
    m.Workload.Metrics.shed,
    Sim.Hist.p99 m.Workload.Metrics.latency,
    Sim.Hist.mean m.Workload.Metrics.latency,
    m.Workload.Metrics.leader_fsyncs,
    m.Workload.Metrics.leader_utilization )

let model_string m =
  let c, f, s, p99, mean, fsyncs, util = model_key m in
  Printf.sprintf "%d %d %d %d %.17g %d %.17g" c f s p99 mean fsyncs util

(* Node-level counters the driver zeroes at the warmup boundary on the
   leader (node position 0): whole-run and window totals. *)
let run_total p pick =
  let s = pick p.c_start and pre = pick p.c_pre and e = pick p.c_end in
  let acc = ref 0 in
  Array.iteri
    (fun i x -> acc := !acc + if i = 0 then pre.(i) - s.(i) + x else x - s.(i))
    e;
  !acc

let window_total p pick =
  let pre = pick p.c_pre and e = pick p.c_end in
  let acc = ref 0 in
  Array.iteri (fun i x -> acc := !acc + if i = 0 then x else x - pre.(i)) e;
  !acc
