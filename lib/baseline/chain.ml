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
  head : Raft.Replica.t;
  tail : int;  (** the chain is in node-id order: head 0, tail [n - 1] *)
  mutable tail_acked : index;
}

(* forward a batch down the chain; runs in the handler/propagator coroutine
   of node [b]. The head's commit point equals [tail_acked], so every link
   ships the head's. *)
let forward t (b : Raft.Replica.t) entries =
  if Raft.Server.id b < t.tail && Array.length entries > 0 then
    ignore (Common.send_append b ~leader:t.head ~dst:(Raft.Server.id b + 1) entries)

(* every node: append, persist, forward; the tail additionally reports its
   position straight back to the head *)
let handle_append t (b : Raft.Replica.t) ~entries ~commit =
  Depfast.Mutex.with_lock b.sched b.append_mu (fun () ->
      let n = Array.length entries in
      (* depfast-lint: allow lock-across-call — deliberate baseline defect:
         per-entry CPU work runs inside the append lock *)
      Cluster.Node.cpu_work b.node
        (Raft.Config.cost_follower_fixed + (n * Raft.Config.cost_follower_entry));
      Raft.Server.append_entries b entries;
      if n > 0 then
        (* depfast-lint: allow lock-across-call — deliberate baseline defect:
           the chain holds its append lock across WAL durability (Table 1),
           fate-sharing with its own slow disk *)
        Raft.Server.persist b entries;
      Raft.Server.set_commit b commit;
      (* depfast-lint: allow lock-across-call — deliberate baseline defect:
         the chain forwards downstream (CPU + rpc) without releasing the
         append lock, so one slow successor stalls the whole segment *)
      forward t b entries;
      if Raft.Server.id b = t.tail && n > 0 then
        ignore
          (Cluster.Rpc.call b.rpc ~src:b.node ~dst:(Raft.Server.id t.head)
             (Update_position
                {
                  follower = Raft.Server.id b;
                  match_index = Raft.Rlog.last_index b.rlog;
                  term = 1;
                })));
  None

let handle_tail_ack t ~match_index =
  let b = t.head in
  Cluster.Node.cpu_charge b.node Raft.Config.cost_ack_process;
  if match_index > t.tail_acked then begin
    t.tail_acked <- match_index;
    Raft.Server.set_commit b match_index
  end;
  Some Ack

(* head write path: batch, append, persist, push down the chain; requests
   complete when the tail's ack brings the commit point past them *)
let head_loop t =
  let b = t.head in
  let rec loop () =
    if Cluster.Node.alive b.node then begin
      Raft.Server.await_work b;
      let entries = Common.seal_batch b in
      if Array.length entries > 0 then begin
        Raft.Server.persist b entries;
        forward t b entries
      end;
      loop ()
    end
  in
  loop ()

(* ---------- construction ---------- *)

let handle t b req =
  match req with
  | Append_entries { entries; commit; _ } -> (
    match view_materialize entries with
    | None -> None
    | Some entries -> handle_append t b ~entries ~commit)
  | Update_position { match_index; _ } -> handle_tail_ack t ~match_index
  | req -> Raft.Server.handle b req

let create sched ~n ?(cfg = Raft.Config.default) () =
  let make bases = { head = List.hd bases; tail = n - 1; tail_acked = 0 } in
  let c = Common.build sched ~n ~cfg ~make ~handle () in
  Cluster.Node.spawn c.t.head.node ~name:"chain-head" (fun () -> head_loop c.t);
  c

(* clients address the head only *)
let sut (c : t Common.cluster) =
  Raft.Group.sut c.g ~name:"Chain replication" ~servers:[ Raft.Server.id c.t.head ]

let tail_acked (c : t Common.cluster) = c.t.tail_acked
