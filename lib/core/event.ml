type kind = Signal | Timer | Rpc | Disk | Quorum | And_ | Or_

type arity = Count of int | Majority | All | Any

(* Children live in a growable array so the steady-state hot paths (fire
   propagation, quorum counting, staller analysis) neither allocate nor
   re-traverse lists. The first fire observer sits in the [waiter] slot,
   the rest in a reverse-order list run by recursing to the tail first, so
   registration allocates at most one cons and firing allocates nothing.
   The whole mutable lifecycle — the ready and abandoned bits, the
   ready-child count, and the attached-child count (the children array's
   live prefix length) — packs into the single [state] word, and the kind
   and peer node into the immutable [shape] word, keeping the record at
   12 words with no option boxes. *)
type t = {
  id : int;
  shape : int;  (* bits 0..2 = kind, bits 3.. = peer node + 1 (0 = none) *)
  label : string;
  arity : arity;
  mutable state : int;
      (* bit 0 = ready, bit 1 = abandoned,
         bits 2..31 = ready children, bits 32.. = attached children *)
  mutable children : t array;  (* attachment order; live prefix only *)
  mutable parents : t list;
  mutable waiter : unit -> unit;
      (* the first fire observer, [no_waiter] when free; taken only while
         [fire_obs] is empty, so it always precedes the list *)
  mutable fire_obs : (unit -> unit) list;  (* reverse registration order *)
  mutable abandon_obs : (unit -> unit) list;
  mutable peers_cache : int list option;
      (* transitive remote peers, dedup in DFS pre-order. Invariant: if a
         node's cache is [None], every ancestor's cache is [None] too
         (computing a compound's peers caches the whole subtree), so
         invalidation can stop at the first uncached ancestor. *)
}

let ready_bit = 1
let abandoned_bit = 2
let one_ready = 1 lsl 2
let one_child = 1 lsl 32
let n_children_of t = t.state lsr 32
let n_ready_of t = (t.state lsr 2) land 0x3FFFFFFF

(* [shape]'s kind codes follow the constructor order; compounds are 4.. *)
let kinds = [| Signal; Timer; Rpc; Disk; Quorum; And_; Or_ |]
let code_of = function
  | Signal -> 0 | Timer -> 1 | Rpc -> 2 | Disk -> 3 | Quorum -> 4 | And_ -> 5 | Or_ -> 6
let peer_of t = (t.shape lsr 3) - 1

(* compared physically: the free slot's sentinel, never a real observer *)
let no_waiter () = ()

let dummy =
  {
    id = 0;
    shape = 0;
    label = "";
    arity = Any;
    state = ready_bit;
    children = [||];
    parents = [];
    waiter = no_waiter;
    fire_obs = [];
    abandon_obs = [];
    peers_cache = None;
  }

(* a lock-free counter, so id allocation stays domain-safe once engines
   run on separate OCaml 5 domains (ids start at 1; 0 is [dummy]) *)
let next_id = Atomic.make 0

let make_p label peer kind arity =
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    shape = ((peer + 1) lsl 3) lor code_of kind;
    label;
    arity;
    state = 0;
    children = [||];
    parents = [];
    waiter = no_waiter;
    fire_obs = [];
    abandon_obs = [];
    peers_cache = None;
  }

let make ?(label = "") kind arity = make_p label (-1) kind arity
let id t = t.id
let kind t = kinds.(t.shape land 7)
let label t = t.label
let signal ?label () = make ?label Signal Any
let rpc_completion ?(label = "") ~peer () = make_p label peer Rpc Any
let disk_completion ?(label = "") ~node () = make_p label node Disk Any
let timer_kind ?label () = make ?label Timer Any
let quorum ?label arity = make ?label Quorum arity
let and_ ?label () = make ?label And_ All
let or_ ?label () = make ?label Or_ Any
let is_ready t = t.state land ready_bit <> 0
let is_abandoned t = t.state land abandoned_bit <> 0
let child_count t = n_children_of t
let children t = List.init (n_children_of t) (fun i -> t.children.(i))

let iter_children t f =
  for i = 0 to n_children_of t - 1 do
    f t.children.(i)
  done

let ready_children t = n_ready_of t
let is_compound t = t.shape land 7 >= 4

let required t =
  if not (is_compound t) then 1
  else
    match t.arity with
    | Count k -> k
    | Majority -> (n_children_of t / 2) + 1
    | All -> n_children_of t
    | Any -> 1

(* observers are stored in reverse registration order; recursing to the
   tail first runs them in registration order without a List.rev *)
let rec run_obs = function
  | [] -> ()
  | f :: tl ->
    run_obs tl;
    f ()

(* mark [t] ready and propagate to parents; compounds with zero required
   children fire as soon as checked *)
let rec become_ready t =
  if t.state land ready_bit = 0 then begin
    t.state <- t.state lor ready_bit;
    let w = t.waiter and obs = t.fire_obs in
    t.waiter <- no_waiter;
    t.fire_obs <- [];
    w ();
    run_obs obs;
    List.iter child_became_ready t.parents
  end

and child_became_ready parent =
  if parent.state land ready_bit = 0 then begin
    parent.state <- parent.state + one_ready;
    check_compound parent
  end

and check_compound t =
  if
    t.state land ready_bit = 0
    && is_compound t
    && n_children_of t > 0
    && n_ready_of t >= required t
  then become_ready t

let fire t =
  if is_compound t then invalid_arg "Event.fire: compound events fire via children";
  if t.state land abandoned_bit = 0 then become_ready t

(* initial capacity 6 covers the common shapes (or_ pairs, 3- and 5-child
   quorums plus a local WAL sibling) with a single allocation; the literal
   allocates inline where [Array.make] would be an out-of-line C call *)
let push_child parent child =
  let n = n_children_of parent in
  let cap = Array.length parent.children in
  if n = cap then begin
    let bigger =
      if cap = 0 then [| dummy; dummy; dummy; dummy; dummy; dummy |]
      else Array.make (2 * cap) dummy
    in
    Array.blit parent.children 0 bigger 0 n;
    parent.children <- bigger
  end;
  parent.children.(n) <- child;
  parent.state <- parent.state + one_child

(* see the [peers_cache] invariant: stopping at an uncached node is safe *)
let rec invalidate_peers t =
  match t.peers_cache with
  | None -> ()
  | Some _ ->
    t.peers_cache <- None;
    List.iter invalidate_peers t.parents

let add parent ~child =
  if not (is_compound parent) then invalid_arg "Event.add: not a compound event";
  if parent.state land ready_bit <> 0 then invalid_arg "Event.add: parent already fired";
  push_child parent child;
  (* depfast-lint: allow unbounded-growth — parent back-links mirror the
     wiring the program performs explicitly; bounded by the event graph *)
  child.parents <- parent :: child.parents;
  invalidate_peers parent;
  if child.state land ready_bit <> 0 then parent.state <- parent.state + one_ready;
  check_compound parent

let take_waiter t f =
  match t.fire_obs with
  | [] when t.state land ready_bit = 0 && t.waiter == no_waiter ->
    t.waiter <- f;
    true
  | _ -> false

let drop_waiter t f = if t.waiter == f then t.waiter <- no_waiter

let on_fire t f =
  if t.state land ready_bit <> 0 then f ()
  else if not (take_waiter t f) then
    (* depfast-lint: allow unbounded-growth — observers run and are freed at
       the fire; the list is bounded by registrations on one live event *)
    t.fire_obs <- f :: t.fire_obs

let live_mask = ready_bit lor abandoned_bit

let abandon t =
  let rec go t =
    if t.state land live_mask = 0 then begin
      t.state <- t.state lor abandoned_bit;
      let obs = t.abandon_obs in
      t.abandon_obs <- [];
      run_obs obs;
      (* abandoning a compound abandons children that no live parent still
         awaits *)
      for i = 0 to n_children_of t - 1 do
        let child = t.children.(i) in
        if not (List.exists (fun p -> p.state land live_mask = 0) child.parents) then
          go child
      done
    end
  in
  go t

let on_abandon t f =
  (* depfast-lint: allow unbounded-growth — cleared wholesale by abandon;
     bounded by registrations on one live event *)
  if t.state land abandoned_bit <> 0 then f () else t.abandon_obs <- f :: t.abandon_obs

let rec mem_peer p = function [] -> false | q :: rest -> q = p || mem_peer p rest

let rec peers t =
  match t.peers_cache with
  | Some l -> l
  | None ->
    let l =
      if not (is_compound t) then (if peer_of t < 0 then [] else [ peer_of t ])
      else begin
        (* merge the children's (cached) peer lists, deduplicating by
           first occurrence — identical to a DFS pre-order of the tree.
           A compound has a handful of peers, so a scan of those gathered
           so far beats building a table *)
        let out = ref (if peer_of t >= 0 then [ peer_of t ] else []) in
        for i = 0 to n_children_of t - 1 do
          List.iter (fun p -> if not (mem_peer p !out) then out := p :: !out) (peers t.children.(i))
        done;
        List.rev !out
      end
    in
    t.peers_cache <- Some l;
    l

(* a-priori structural analysis: readiness is ignored, the question is
   whether the wait's shape gave node [p] the power to stall it. One
   refinement: a child abandoned while its parent is still pending can
   never fire, so it weakens the parent's quorum exactly like a child [p]
   controls. Abandonment observed under an already-fired parent (straggler
   discard after a quorum fired) is ignored — for completed waits the
   analysis stays purely structural. *)
let rec can_stall e p =
  if not (is_compound e) then peer_of e = p
  else begin
    let stallable = ref 0 in
    let e_pending = e.state land ready_bit = 0 in
    for i = 0 to n_children_of e - 1 do
      let c = e.children.(i) in
      if (e_pending && c.state land live_mask = abandoned_bit) || can_stall c p then
        incr stallable
    done;
    n_children_of e - !stallable < required e
  end

let stallers t = List.filter (can_stall t) (peers t)
