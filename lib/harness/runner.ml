(** Builds a system under test on a fresh simulation and runs one
    (system × fault) experiment cell. *)

type system = Depfast_raft | Mongo_like | Tidb_like | Rethink_like

let all_systems = [ Mongo_like; Tidb_like; Rethink_like; Depfast_raft ]
let baseline_systems = [ Mongo_like; Tidb_like; Rethink_like ]

let system_name = function
  | Depfast_raft -> "DepFastRaft"
  | Mongo_like -> "MongoDB-like"
  | Tidb_like -> "TiDB-like"
  | Rethink_like -> "RethinkDB-like"

let clients_of_group g ~count = Raft.Group.ycsb_clients g ~count

(* build the SUT; for DepFastRaft, bootstrap node 0 as leader so fault
   victims are always followers (the paper's setup) *)
let build system sched ~n ~cfg =
  match system with
  | Mongo_like -> Baseline.Mongo_like.sut (Baseline.Mongo_like.create sched ~n ~cfg ())
  | Tidb_like -> Baseline.Tidb_like.sut (Baseline.Tidb_like.create sched ~n ~cfg ())
  | Rethink_like ->
    Baseline.Rethink_like.sut (Baseline.Rethink_like.create sched ~n ~cfg ())
  | Depfast_raft ->
    let g = Raft.Group.create sched ~n ~cfg () in
    Depfast.Sched.spawn sched ~name:"bootstrap" (fun () -> Raft.Group.elect g 0);
    Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
    (match Raft.Group.leader g with
    | Some s when Raft.Server.id s = 0 -> ()
    | _ -> failwith "bootstrap election failed");
    Raft.Group.sut g ~name:"DepFastRaft"

type cell = {
  system : system;
  n : int;
  fault : Cluster.Fault.kind option;
  metrics : Workload.Metrics.t;
}

(** Run one experiment cell on a fresh engine. [slow_count] faulty
    followers (paper: 1 in 3-node, a minority — 2 — in 5-node setups).
    [trace] records every wait into the scheduler's trace ring for the whole
    run — used to measure the overhead of always-on tracing. *)
let run_cell ?(cfg = Raft.Config.default) ?(trace = false) ~params ~system ~n
    ~slow_count ~fault () =
  let engine = Sim.Engine.create ~seed:params.Params.seed () in
  let sched = Depfast.Sched.create engine in
  if trace then Depfast.Trace.enable (Depfast.Sched.trace sched);
  let sut = build system sched ~n ~cfg in
  (match fault with
  | None -> ()
  | Some kind ->
    let victims =
      List.filteri (fun i _ -> i < slow_count) sut.Workload.Sut.follower_nodes
    in
    List.iter (fun v -> ignore (Cluster.Fault.inject v kind)) victims);
  let clients = sut.Workload.Sut.make_clients ~count:params.Params.clients in
  let metrics =
    Workload.Driver.run sched ~clients ~workload:(Params.workload params)
      ~warmup:params.Params.warmup ~duration:params.Params.duration
      ~leader_node:sut.Workload.Sut.leader_node ()
  in
  { system; n; fault; metrics }

let fault_name = function None -> "No Slowness" | Some k -> Cluster.Fault.name k
