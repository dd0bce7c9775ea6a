(** Chain replication (van Renesse & Schneider, OSDI '04) — the design
    tradeoff the paper calls out.

    The paper's measurement methodology {e turned off} MongoDB's chained
    replication "which by design could propagate fail-slow faults" (§2.1),
    and §3.3 proposes using SPGs to reason about the tradeoff between chain
    replication's load balancing and its fail-slow tolerance. This module
    makes that concrete: writes flow head → middle → tail, the tail
    acknowledges, and {e every} link is a 1/1 wait — the SPG of a chain is
    all red. Any single fail-slow node stalls every write, even though the
    same three nodes under a majority quorum would tolerate it.

    The implementation reuses the shared baseline plumbing; each node
    forwards the replication stream to its successor and the tail's
    acknowledgement, flowing back through [Update_position], advances the
    commit point at the head. *)

open Raft.Types

type t = {
  bases : Common.base list;  (** in chain order; head first *)
  chain : int list;  (** node ids, head first *)
  mutable tail_acked : index;
}

let head t = List.hd t.bases
let tail_id t = List.nth t.chain (List.length t.chain - 1)

let successor t id =
  let rec go = function
    | a :: b :: _ when a = id -> Some b
    | _ :: rest -> go rest
    | [] -> None
  in
  go t.chain

(* forward a batch down the chain; runs in the handler/propagator coroutine
   of node [b] *)
let forward t b entries =
  match successor t (Cluster.Node.id b.Common.node) with
  | None -> ()
  | Some next ->
    let cfg = b.Common.cfg in
    let n = Array.length entries in
    if n > 0 then begin
      Cluster.Node.cpu_work b.Common.node
        (cfg.Raft.Config.cost_per_follower + (n * cfg.Raft.Config.cost_send_entry));
      let prev_index = entries.(0).index - 1 in
      ignore
        (Cluster.Rpc.call b.Common.rpc ~src:b.Common.node ~dst:next
           ~bytes:(256 + entries_bytes_a entries)
           (Append_entries
              {
                term = 1;
                leader = Cluster.Node.id (head t).Common.node;
                prev_index;
                prev_term = 1;
                (* baselines ship a copied batch, wrapped as an owned view *)
                entries = view_of_array entries;
                commit = t.tail_acked;
              }))
    end

(* every node: append, persist, forward; the tail additionally reports its
   position straight back to the head *)
let handle_append t b ~entries ~commit =
  Depfast.Mutex.with_lock b.Common.sched b.Common.append_mu (fun () ->
      let cfg = b.Common.cfg in
      let n = Array.length entries in
      (* depfast-lint: allow lock-across-call — deliberate baseline defect:
         per-entry CPU work runs inside the append lock *)
      Cluster.Node.cpu_work b.Common.node
        (cfg.Raft.Config.cost_follower_fixed + (n * cfg.Raft.Config.cost_follower_entry));
      Common.follower_append_a b entries;
      if n > 0 then
        (* depfast-lint: allow lock-across-call red-exposure — deliberate
           baseline defect: the chain holds its append lock across WAL
           durability (Table 1), fate-sharing with its own slow disk *)
        Depfast.Sched.wait b.Common.sched
          (Common.wal_append b ~bytes:(Common.wal_bytes_a b entries));
      Common.set_commit b commit;
      (* depfast-lint: allow lock-across-call — deliberate baseline defect:
         the chain forwards downstream (CPU + rpc) without releasing the
         append lock, so one slow successor stalls the whole segment *)
      forward t b entries;
      if Cluster.Node.id b.Common.node = tail_id t && n > 0 then
        ignore
          (Cluster.Rpc.call b.Common.rpc ~src:b.Common.node
             ~dst:(Cluster.Node.id (head t).Common.node)
             (Update_position
                {
                  follower = Cluster.Node.id b.Common.node;
                  match_index = Raft.Rlog.last_index b.Common.rlog;
                  term = 1;
                })));
  None

let handle_tail_ack t ~match_index =
  let b = head t in
  Common.cpu_charge b b.Common.cfg.Raft.Config.cost_ack_process;
  if match_index > t.tail_acked then begin
    t.tail_acked <- match_index;
    Common.set_commit b match_index
  end;
  Some Ack

(* head write path: batch, append, persist, push down the chain; requests
   complete when the tail's ack brings the commit point past them *)
let head_loop t =
  let b = head t in
  let cfg = b.Common.cfg in
  let rec loop () =
    if Common.alive b then begin
      if Queue.is_empty b.Common.pending_q then
        ignore
          (Depfast.Condvar.wait_timeout b.Common.sched b.Common.work_cv
             cfg.Raft.Config.group_commit_window);
      let batch = Common.take_batch b cfg.Raft.Config.batch_max in
      let entries = Array.of_list (Common.append_batch b batch) in
      let n = Array.length entries in
      if n > 0 then begin
        Cluster.Node.cpu_work b.Common.node
          (cfg.Raft.Config.cost_round_fixed + (n * cfg.Raft.Config.cost_marshal_entry));
        (* depfast-lint: allow red-exposure — own-WAL durability wait:
           synchronous commit is the chain baseline's protocol *)
        Depfast.Sched.wait b.Common.sched
          (Common.wal_append b ~bytes:(Common.wal_bytes_a b entries));
        forward t b entries
      end;
      loop ()
    end
  in
  loop ()

(* ---------- construction ---------- *)

type cluster = { t : t; rpc : Common.rpc }

let handle t b ~src:_ req =
  match req with
  | Client_request { cmd; client_id; seq } ->
    Some (Common.handle_client_request b ~cmd ~client_id ~seq)
  | Append_entries { entries; commit; _ } -> (
    match view_materialize entries with
    | None -> None
    | Some entries -> handle_append t b ~entries ~commit)
  | Update_position { match_index; _ } -> handle_tail_ack t ~match_index
  | Request_vote _ | Pull_oplog _ | Transfer_leadership _ | Timeout_now -> Some Ack

let create sched ~n ?(cfg = Raft.Config.default) () =
  let rpc, nodes = Common.make_cluster sched ~n () in
  let ids = List.map Cluster.Node.id nodes in
  let bases =
    List.map
      (fun node ->
        let peers = List.filter (fun p -> p <> Cluster.Node.id node) ids in
        Common.make_base rpc node ~peers ~leader_id:0 ~cfg)
      nodes
  in
  let t = { bases; chain = ids; tail_acked = 0 } in
  List.iter
    (fun b ->
      Cluster.Rpc.serve rpc ~node:b.Common.node ~handler:(fun ~src req ->
          handle t b ~src req);
      Common.start_common b)
    bases;
  Cluster.Node.spawn (head t).Common.node ~name:"chain-head" (fun () -> head_loop t);
  { t; rpc }

let sut c ~cfg =
  let head_base = head c.t and rest = List.tl c.t.bases in
  {
    Workload.Sut.name = "Chain replication";
    leader_node = head_base.Common.node;
    follower_nodes = List.map (fun b -> b.Common.node) rest;
    make_clients =
      (fun ~count ->
        Common.make_clients c.rpc ~sched:head_base.Common.sched
          ~server_ids:[ Cluster.Node.id head_base.Common.node ]
          ~cfg ~count);
  }

let tail_acked c = c.t.tail_acked
