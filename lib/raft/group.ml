type t = {
  rpc : Server.rpc;
  servers : Server.t list;
  nodes : Cluster.Node.t list;
  cfg : Config.t;
  sched : Depfast.Sched.t;
  mutable clients : Client.t list;  (* by [make_clients], oldest first *)
}

let build sched ~n ~cfg ?(first_node_id = 0) ?mem_soft_cap ?mem_hard_cap ?profile ?leader () =
  let rpc = Cluster.Rpc.create sched () in
  let ids = List.init n (fun i -> first_node_id + i) in
  let nodes =
    List.mapi
      (fun i id ->
        Cluster.Node.create sched ~id ~name:(Printf.sprintf "s%d" (i + 1)) ?mem_soft_cap
          ?mem_hard_cap ())
      ids
  in
  let servers =
    List.map
      (fun node ->
        let peers = List.filter (fun p -> p <> Cluster.Node.id node) ids in
        Server.create ?profile ?leader rpc node ~peers ~cfg)
      nodes
  in
  { rpc; servers; nodes; cfg; sched; clients = [] }

let create sched ~n ?(cfg = Config.default) ?first_node_id () =
  let t = build sched ~n ~cfg ?first_node_id () in
  List.iter Server.serve t.servers;
  List.iter Server.start t.servers;
  t

(* streams re-split in creation order (network, servers, clients), then
   the servers' coroutines respawned, as [create] and [make_clients] did *)
let reset t =
  Cluster.Rpc.reset t.rpc;
  List.iter Cluster.Node.reset t.nodes;
  List.iter Server.reset t.servers;
  List.iter
    (fun c ->
      Cluster.Node.reset (Client.node c);
      Client.reset c)
    t.clients;
  List.iter Server.start t.servers

let server t id = List.find (fun s -> Server.id s = id) t.servers

let leader t =
  List.filter (fun s -> Server.is_leader s && Cluster.Node.alive (Server.node s)) t.servers
  |> List.fold_left
       (fun best s ->
         match best with
         | None -> Some s
         | Some b -> if Server.term s > Server.term b then Some s else best)
       None

let wait_for_leader t =
  let deadline = Sim.Time.add (Depfast.Sched.now t.sched) (Sim.Time.sec 5) in
  let rec poll () =
    match leader t with
    | Some s -> Some s
    | None ->
      if Depfast.Sched.now t.sched >= deadline then None
      else begin
        Depfast.Sched.sleep t.sched (Sim.Time.ms 10);
        poll ()
      end
  in
  poll ()

let elect t id =
  let s = server t id in
  Server.become_leader_now s;
  let rec poll tries =
    if (not (Server.is_leader s)) && tries > 0 then begin
      Depfast.Sched.sleep t.sched (Sim.Time.ms 10);
      if not (Server.is_leader s) then Server.become_leader_now s;
      poll (tries - 1)
    end
  in
  poll 100

let make_clients t ~count ?first_node_id ?servers () =
  let first =
    match first_node_id with
    | Some f -> f
    | None -> List.fold_left (fun m n -> max m (Cluster.Node.id n)) 0 t.nodes + 1
  in
  let servers = match servers with Some ids -> ids | None -> List.map Server.id t.servers in
  let clients =
    List.init count (fun j ->
        let node =
          Cluster.Node.create t.sched ~id:(first + j)
            ~name:(Printf.sprintf "c%d" (j + 1))
            ()
        in
        Cluster.Rpc.attach t.rpc node;
        Client.create t.rpc node ~servers ~cfg:t.cfg ~id:(first + j) ())
  in
  t.clients <- t.clients @ clients;
  clients

let outcome_of_submit = function
  | Client.Committed _ -> Workload.Driver.Committed
  | Client.Shed -> Workload.Driver.Shed
  | Client.Failed -> Workload.Driver.Failed

let ycsb_clients ?servers t ~count =
  List.map
    (fun c ->
      {
        Workload.Driver.node = Client.node c;
        run_op =
          (fun op ->
            outcome_of_submit
              (match op with
              | Workload.Ycsb.Update { key; value } -> Client.submit c (Types.Put { key; value })
              | Workload.Ycsb.Read { key } -> Client.submit c (Types.Get { key })));
      })
    (make_clients t ~count ?servers ())

let sut ?servers t ~name =
  {
    Workload.Sut.name;
    leader_node = List.hd t.nodes;
    follower_nodes = List.tl t.nodes;
    make_clients = (fun ~count -> ycsb_clients ?servers t ~count);
  }
