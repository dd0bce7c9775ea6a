type t = {
  sched : Depfast.Sched.t;
  groups : Group.t array;
  cfg : Config.t;
  mutable next_session_node : int;
}

let create sched ~shards ~replicas ?(cfg = Config.default) () =
  let groups =
    Array.init shards (fun s ->
        Group.create sched ~n:replicas ~cfg ~first_node_id:(s * replicas) ())
  in
  { sched; groups; cfg; next_session_node = (shards * replicas) + 1000 }

(* shard [s]'s node [s * replicas] must win, as [Runner.bootstrap]'s node 0 *)
let bootstrap t =
  let first s = s * List.length t.groups.(s).Group.nodes in
  let elect s g = Depfast.Sched.spawn t.sched ~name:"bootstrap" (fun () -> Group.elect g (first s)) in
  Array.iteri elect t.groups;
  Depfast.Sched.run ~until:(Sim.Time.add (Depfast.Sched.now t.sched) (Sim.Time.sec 1)) t.sched;
  Array.iteri
    (fun s g ->
      match Group.leader g with
      | Some l when Server.id l = first s -> ()
      | _ -> failwith (Printf.sprintf "Sharded.bootstrap: shard %d did not elect node %d" s (first s)))
    t.groups

let groups t = Array.to_list t.groups
let shard_of t key = Hashtbl.hash key mod Array.length t.groups

type session = {
  store : t;
  node : Cluster.Node.t;
  clients : Client.t array;  (* one per shard, sharing the node *)
  sid : int;
  mutable tx_counter : int;
}

let session t ~id =
  let node_id = t.next_session_node in
  t.next_session_node <- t.next_session_node + 1;
  let node =
    Cluster.Node.create t.sched ~id:node_id ~name:(Printf.sprintf "txc%d" id) ()
  in
  let clients =
    Array.map
      (fun g ->
        Cluster.Rpc.attach g.Group.rpc node;
        Client.create g.Group.rpc node
          ~servers:(List.map Server.id g.Group.servers)
          ~cfg:t.cfg ~id:node_id ())
      t.groups
  in
  { store = t; node; clients; sid = id; tx_counter = 0 }

let session_node s = s.node

type outcome = Committed | Aborted | Failed

(* submit a command on a shard from a sub-coroutine, reporting the result
   into ok/bad signal events — the coordinator never waits on one shard *)
let submit_async s ~shard cmd ~classify =
  let ok = Depfast.Event.rpc_completion ~label:"shard-ok" ~peer:shard () in
  let bad = Depfast.Event.rpc_completion ~label:"shard-bad" ~peer:shard () in
  Depfast.Sched.spawn_here s.store.sched ~name:"tx-branch" (fun () ->
      let result = Client.command s.clients.(shard) cmd in
      if classify result then Depfast.Event.fire ok else Depfast.Event.fire bad);
  (ok, bad)

let prepared = function Some (Some "ok") -> true | Some _ | None -> false
let acked = function Some _ -> true | None -> false

let fresh_txid s =
  s.tx_counter <- s.tx_counter + 1;
  (s.sid * 1_000_000) + s.tx_counter

let by_shard s writes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      let sh = shard_of s.store k in
      Hashtbl.replace tbl sh ((k, v) :: Option.value ~default:[] (Hashtbl.find_opt tbl sh)))
    writes;
  Hashtbl.fold (fun sh ws acc -> (sh, List.rev ws) :: acc) tbl []

let phase2 s participants cmd =
  (* commit/abort decisions must reach every participant: an AndEvent of
     per-shard acks (each ack itself stands for a majority commit inside
     the shard) *)
  let all = Depfast.Event.and_ ~label:"phase2" () in
  List.iter
    (fun (shard, _) ->
      let ok, bad = submit_async s ~shard cmd ~classify:acked in
      let either = Depfast.Event.or_ () in
      Depfast.Event.add either ~child:ok;
      Depfast.Event.add either ~child:bad;
      Depfast.Event.add all ~child:either)
    participants;
  ignore
    (Depfast.Sched.wait_timeout s.store.sched all
       (2 * s.store.cfg.Config.client_timeout))

let txn s ~writes =
  match by_shard s writes with
  | [] -> Committed
  | [ (shard, ws) ] as participants ->
    (* one shard: its prepare is awaited directly, then the same phase 2;
       an abort releases whatever a prepare applied but unanswered holds *)
    let txid = fresh_txid s in
    let reply = Client.command s.clients.(shard) (Types.Tx_prepare { txid; writes = ws }) in
    let ok = prepared reply in
    phase2 s participants (if ok then Types.Tx_commit { txid } else Types.Tx_abort { txid });
    if ok then Committed
    else if acked reply then Aborted (* a lock conflict *)
    else Failed
  | participants ->
    let txid = fresh_txid s in
    (* phase 1: prepare everywhere in parallel; wait on the §3.2 nest:
       Or( And(all ok), Or(any reject) ) *)
    (* 2PC phase 1 inherently needs every participant; the and_ is
       raced against any_bad under wait_timeout below, which bounds the
       stall *)
    let all_ok = Depfast.Event.and_ ~label:"prepared" () in
    let any_bad = Depfast.Event.or_ ~label:"rejected" () in
    List.iter
      (fun (shard, ws) ->
        let ok, bad =
          submit_async s ~shard (Types.Tx_prepare { txid; writes = ws })
            ~classify:prepared
        in
        Depfast.Event.add all_ok ~child:ok;
        Depfast.Event.add any_bad ~child:bad)
      participants;
    let decided = Depfast.Event.or_ ~label:"phase1" () in
    Depfast.Event.add decided ~child:all_ok;
    Depfast.Event.add decided ~child:any_bad;
    let outcome =
      Depfast.Sched.wait_timeout s.store.sched decided
        (2 * s.store.cfg.Config.client_timeout)
    in
    if outcome = Depfast.Sched.Ready && Depfast.Event.is_ready all_ok then begin
      phase2 s participants (Types.Tx_commit { txid });
      Committed
    end
    else begin
      (* release any locks we did take *)
      phase2 s participants (Types.Tx_abort { txid });
      if Depfast.Event.is_ready any_bad then Aborted else Failed
    end

let read s ~key =
  let shard = shard_of s.store key in
  Client.get s.clients.(shard) ~key
