open Types

type t = {
  rpc : (Types.req, Types.resp) Cluster.Rpc.t;
  node : Cluster.Node.t;
  sched : Depfast.Sched.t;
  servers : int array;
  cfg : Config.t;
  client_id : int;
  rng : Sim.Rng.t;
  mutable seq : int;
  mutable leader_hint : int option;
  mutable shed : int;
}

type outcome = Committed of string option | Shed | Failed

(* no command sent, no leader known, the stream re-split from the engine's
   root *)
let reset t =
  Sim.Rng.split_into (Sim.Engine.rng (Depfast.Sched.engine t.sched)) ~into:t.rng;
  t.seq <- 0;
  t.leader_hint <- None;
  t.shed <- 0

let create rpc node ~servers ?(cfg = Config.default) ~id () =
  let t =
    {
      rpc;
      node;
      sched = Cluster.Node.sched node;
      servers = Array.of_list servers;
      cfg;
      client_id = id;
      rng = Sim.Rng.create 0L;
      seq = 0;
      leader_hint = None;
      shed = 0;
    }
  in
  reset t;
  t

let node t = t.node

let target t =
  match t.leader_hint with
  | Some s -> s
  | None -> Sim.Rng.pick t.rng t.servers

(* one command, retried across leader changes; same seq = exactly-once.
   A shed reply (bounded admission) is terminal: the leader told us it is
   overloaded, and hammering it with an immediate retry — or spraying the
   same command at followers that would only redirect back — feeds the
   overload the shed exists to relieve. Fail fast; the caller decides.
   Attempt [k] of command [seq]; top-level, so an op builds no closure. *)
let rec attempt t cmd seq k =
  let max_attempts = 8 in
  if k >= max_attempts then Failed
  else begin
    let dst = target t in
    let call =
      Cluster.Rpc.call t.rpc ~src:t.node ~dst
        (Client_request { cmd; client_id = t.client_id; seq })
    in
    (* per-attempt budget: a leader that cannot answer within two RPC
       timeouts has likely crashed or lost its quorum; retrying elsewhere
       is safe because the sequence number deduplicates *)
    match
      (* the Figure-2 exemption: a client waits on the leader it is
         talking to; bounded by the timeout and retried against another
         node, mirroring Spg.audit's ~allow *)
      Depfast.Sched.wait_timeout t.sched (Cluster.Rpc.event call)
        (2 * t.cfg.Config.rpc_timeout)
    with
    | Depfast.Sched.Timed_out ->
      Cluster.Rpc.abandon call;
      t.leader_hint <- None;
      attempt t cmd seq (k + 1)
    | Depfast.Sched.Ready -> (
      match Cluster.Rpc.response call with
      | Some (Client_resp { ok = true; leader_hint; value; _ }) ->
        t.leader_hint <- leader_hint;
        (* a write's [Committed None] is a constant *)
        (match value with None -> Committed None | Some _ -> Committed value)
      | Some (Client_resp { shed = true; leader_hint; _ }) ->
        t.shed <- t.shed + 1;
        t.leader_hint <- leader_hint;
        Shed
      | Some (Client_resp { ok = false; leader_hint; _ }) ->
        (match leader_hint with
        | Some h when h <> dst -> t.leader_hint <- leader_hint
        | _ -> t.leader_hint <- None);
        (* back off briefly before retrying (election may be in flight) *)
        Depfast.Sched.sleep t.sched (Sim.Time.ms (5 * (k + 1)));
        attempt t cmd seq (k + 1)
      | Some _ | None ->
        t.leader_hint <- None;
        attempt t cmd seq (k + 1))
  end

let submit t cmd =
  t.seq <- t.seq + 1;
  attempt t cmd t.seq 0

let command t cmd = match submit t cmd with Committed v -> Some v | Shed | Failed -> None

let put t ~key ~value =
  match submit t (Put { key; value }) with Committed _ -> true | Shed | Failed -> false

let get t ~key =
  match submit t (Get { key }) with Committed v -> Some v | Shed | Failed -> None

let ops_shed t = t.shed
