type color = Red | Green

type edge = {
  src : int;
  dst : int;
  quorum_k : int;
  quorum_n : int;
  color : color;
  count : int;
}

type t = { edges : edge list }

(* Folds over the trace's columns. A fold keys each pair of a record [i]
   and a remote peer [p] of its event by [key]'s fields; keys are hashed
   and compared in place, so a fold allocates one cell per distinct key,
   not one per wait. A cell remembers the first record that carried its
   key. *)
type key =
  | Arity  (* waiter node, peer, quorum arity *)
  | Waiter  (* and the waiting coroutine *)
  | Site  (* and the event's label *)

type cell = { first : int; peer : int; mutable hits : int }

let mix h x = (h * 31) + x
let coroutine_hash trace i = Hashtbl.hash (Trace.coroutine trace i)
let label trace i = Event.label (Trace.event trace i)

let hash key trace i p =
  let h = mix (mix (Trace.node trace i) p) (Trace.quorum_k trace i) in
  let h = mix h (Trace.quorum_n trace i) in
  match key with
  | Arity -> h
  | Waiter -> mix h (coroutine_hash trace i)
  | Site -> mix (mix h (coroutine_hash trace i)) (Hashtbl.hash (label trace i))

let same key trace c i p =
  let j = c.first in
  c.peer = p
  && Trace.node trace j = Trace.node trace i
  && Trace.quorum_k trace j = Trace.quorum_k trace i
  && Trace.quorum_n trace j = Trace.quorum_n trace i
  &&
  match key with
  | Arity -> true
  | Waiter -> String.equal (Trace.coroutine trace j) (Trace.coroutine trace i)
  | Site ->
    String.equal (Trace.coroutine trace j) (Trace.coroutine trace i)
    && String.equal (label trace j) (label trace i)

let rec bump_bucket key trace i p = function
  | [] -> false
  | c :: rest ->
    if same key trace c i p then begin
      c.hits <- c.hits + 1;
      true
    end
    else bump_bucket key trace i p rest

let bump tbl key trace i p =
  let h = hash key trace i p in
  let bucket = match Hashtbl.find tbl h with b -> b | exception Not_found -> [] in
  if not (bump_bucket key trace i p bucket) then
    Hashtbl.replace tbl h ({ first = i; peer = p; hits = 1 } :: bucket)

let rec bump_peers tbl key ~stallers trace i node = function
  | [] -> ()
  | p :: rest ->
    if p <> node && ((not stallers) || Event.can_stall (Trace.event trace i) p) then
      bump tbl key trace i p;
    bump_peers tbl key ~stallers trace i node rest

let allow_none ~node:_ = false

(* every record whose waiter [allow] does not exempt, paired with each
   remote peer of its event — only the stallers among them if [stallers] *)
let tally ?(allow = allow_none) ?(stallers = false) key trace =
  let tbl = Hashtbl.create 8 in
  for i = 0 to Trace.wait_count trace - 1 do
    let node = Trace.node trace i in
    if not (allow ~node) then
      bump_peers tbl key ~stallers trace i node (Event.peers (Trace.event trace i))
  done;
  Hashtbl.fold (fun _ bucket acc -> List.rev_append bucket acc) tbl []

let edge_of trace c =
  let quorum_k = Trace.quorum_k trace c.first and quorum_n = Trace.quorum_n trace c.first in
  {
    src = Trace.node trace c.first;
    dst = c.peer;
    quorum_k;
    quorum_n;
    color = (if quorum_k >= quorum_n then Red else Green);
    count = c.hits;
  }

let edge_key e = (e.src, e.dst, e.quorum_k, e.quorum_n)

let of_trace trace =
  let edges = List.map (edge_of trace) (tally Arity trace) in
  { edges = List.sort (fun a b -> compare (edge_key a) (edge_key b)) edges }

let edges t = t.edges

(* Per-waiter edges: the same aggregation as {!of_trace}/{!edges}, but
   keyed by the waiting coroutine's name so a checker can attribute an
   observed propagation edge back to the code that waited. [allow]
   exempts waiter nodes exactly as in {!audit}. *)
let waiter_edges ?allow trace =
  tally ?allow Waiter trace
  |> List.map (fun c -> (Trace.coroutine trace c.first, edge_of trace c))
  |> List.sort (fun (ca, a) (cb, b) -> compare (ca, edge_key a) (cb, edge_key b))

let nodes t =
  List.sort_uniq compare (List.concat_map (fun e -> [ e.src; e.dst ]) t.edges)

let default_name n = "n" ^ string_of_int n

let to_dot ?(node_name = default_name) t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph spg {\n  rankdir=LR;\n";
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  %s;\n" (node_name n)))
    (nodes t);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s [label=\"%d/%d\", color=%s];\n" (node_name e.src)
           (node_name e.dst) e.quorum_k e.quorum_n
           (match e.color with Red -> "red" | Green -> "green")))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ?(node_name = default_name) fmt t =
  List.iter
    (fun e ->
      Format.fprintf fmt "%s -> %s  %d/%d %s (%d waits)@." (node_name e.src) (node_name e.dst)
        e.quorum_k e.quorum_n
        (match e.color with Red -> "RED" | Green -> "green")
        e.count)
    (edges t)

type violation = { v_wait : Trace.wait; v_peer : int; v_count : int }

(* A violating *site*: the same code location re-offending every round is
   one finding, not one per occurrence. *)
let site v =
  let w = v.v_wait in
  ( w.Trace.node,
    w.Trace.coroutine,
    Event.label w.Trace.event,
    w.Trace.quorum_k,
    w.Trace.quorum_n,
    v.v_peer )

let violation trace i p count = { v_wait = Trace.get trace i; v_peer = p; v_count = count }

let audit ?(allow = allow_none) ?(dedup = true) trace =
  if dedup then
    tally ~allow ~stallers:true Site trace
    |> List.map (fun c -> violation trace c.first c.peer c.hits)
    |> List.sort (fun a b -> compare (site a) (site b))
  else
    List.concat
      (List.init (Trace.wait_count trace) (fun i ->
           let node = Trace.node trace i in
           if allow ~node then []
           else
             List.filter_map
               (fun p -> if p <> node then Some (violation trace i p 1) else None)
               (Event.stallers (Trace.event trace i))))

let is_fail_slow_tolerant ?allow trace = audit ?allow trace = []
