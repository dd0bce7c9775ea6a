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

let sched params = Depfast.Sched.create (Sim.Engine.create ~seed:params.Params.seed ())

let bootstrap sched ~n ~cfg =
  let g = Raft.Group.create sched ~n ~cfg () in
  Depfast.Sched.spawn sched ~name:"bootstrap" (fun () -> Raft.Group.elect g 0);
  Depfast.Sched.run ~until:(Sim.Time.sec 1) sched;
  (match Raft.Group.leader g with
  | Some s when Raft.Server.id s = 0 -> ()
  | _ -> failwith "bootstrap election failed");
  g

let build system sched ~n ~cfg =
  match system with
  | Mongo_like -> Baseline.Mongo_like.sut (Baseline.Mongo_like.create sched ~n ~cfg ())
  | Tidb_like -> Baseline.Tidb_like.sut (Baseline.Tidb_like.create sched ~n ~cfg ())
  | Rethink_like ->
    Baseline.Rethink_like.sut (Baseline.Rethink_like.create sched ~n ~cfg ())
  | Depfast_raft -> Raft.Group.sut (bootstrap sched ~n ~cfg) ~name:"DepFastRaft"

let drive sched sut ~params ~slow_count ~fault =
  (match fault with
  | None -> ()
  | Some kind ->
    let victims =
      List.filteri (fun i _ -> i < slow_count) sut.Workload.Sut.follower_nodes
    in
    List.iter (fun v -> ignore (Cluster.Fault.inject v kind)) victims);
  let clients = sut.Workload.Sut.make_clients ~count:params.Params.clients in
  Workload.Driver.run sched ~clients ~workload:(Params.workload params)
    ~warmup:params.Params.warmup ~duration:params.Params.duration
    ~leader_node:sut.Workload.Sut.leader_node ()

type cell = {
  system : system;
  n : int;
  fault : Cluster.Fault.kind option;
  metrics : Workload.Metrics.t;
}

let run_cell ?(cfg = Raft.Config.default) ?(trace = false) ~params ~system ~n
    ~slow_count ~fault () =
  let sched = sched params in
  if trace then Depfast.Trace.enable (Depfast.Sched.trace sched);
  let sut = build system sched ~n ~cfg in
  { system; n; fault; metrics = drive sched sut ~params ~slow_count ~fault }

let fault_name = function None -> "No Slowness" | Some k -> Cluster.Fault.name k
