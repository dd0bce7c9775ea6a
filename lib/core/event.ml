type kind = Signal | Timer | Rpc | Disk | Quorum | And_ | Or_

type arity = Count of int | Majority | All | Any

(* Children live in a growable array so the steady-state hot paths (fire
   propagation, quorum counting, staller analysis) neither allocate nor
   re-traverse lists. The first fire observer sits in the [waiter] slot,
   the rest in a reverse-order list run by recursing to the tail first, so
   registration allocates at most one cons and firing allocates nothing.
   The whole mutable lifecycle — the ready and abandoned bits, the
   ready-child count, and the attached-child count (the children array's
   live prefix length) — packs into the single [state] word, and the id,
   kind and peer node into the immutable [key] word. What only compounds
   use (arity, children, the peers cache) sits in a [kids] record that
   basic events share ([no_kids]), keeping a basic event at 9 words with
   no option boxes. *)
type kids = {
  arity : arity;
  mutable children : t array;  (* attachment order; live prefix only *)
  mutable peers_cache : int list option;
      (* transitive remote peers, dedup in DFS pre-order. Invariant: if a
         compound's cache is [None], every ancestor's cache is [None] too
         (computing a compound's peers caches its compound subtree), so
         invalidation can stop at the first uncached ancestor. Basic
         events cache nothing: their peers never change. *)
}

and t = {
  key : int;  (* bits 0..2 = kind, bits 3..22 = peer node + 1 (0 = none), bits 23.. = id *)
  label : string;
  mutable state : int;
      (* bit 0 = ready, bit 1 = abandoned,
         bits 2..31 = ready children, bits 32.. = attached children *)
  kids : kids;  (* [no_kids] for basic events, never written through *)
  mutable parents : t list;
  mutable waiter : unit -> unit;
      (* the first fire observer, [no_waiter] when free; taken only while
         [fire_obs] is empty, so it always precedes the list *)
  mutable fire_obs : (unit -> unit) list;  (* reverse registration order *)
  mutable abandon_obs : (unit -> unit) list;
}

let ready_bit = 1
let abandoned_bit = 2
let one_ready = 1 lsl 2
let one_child = 1 lsl 32
let n_children_of t = t.state lsr 32
let n_ready_of t = (t.state lsr 2) land 0x3FFFFFFF

(* [key]'s kind codes follow the constructor order; compounds are 4.. *)
let kinds = [| Signal; Timer; Rpc; Disk; Quorum; And_; Or_ |]
let code_of = function
  | Signal -> 0 | Timer -> 1 | Rpc -> 2 | Disk -> 3 | Quorum -> 4 | And_ -> 5 | Or_ -> 6
let peer_bits = 20
let id_shift = 3 + peer_bits
let peer_of t = ((t.key lsr 3) land ((1 lsl peer_bits) - 1)) - 1

(* compared physically: the free slot's sentinel, never a real observer *)
let no_waiter () = ()

let no_kids = { arity = Any; children = [||]; peers_cache = None }

let dummy =
  {
    key = 0;
    label = "";
    state = ready_bit;
    kids = no_kids;
    parents = [];
    waiter = no_waiter;
    fire_obs = [];
    abandon_obs = [];
  }

(* a lock-free counter, so id allocation stays domain-safe once engines
   run on separate OCaml 5 domains (ids start at 1; 0 is [dummy]) *)
let next_id = Atomic.make 0

let make_p label peer kind kids =
  if peer < -1 || peer + 1 >= 1 lsl peer_bits then invalid_arg "Event: peer node out of range";
  {
    key =
      ((Atomic.fetch_and_add next_id 1 + 1) lsl id_shift) lor ((peer + 1) lsl 3) lor code_of kind;
    label;
    state = 0;
    kids;
    parents = [];
    waiter = no_waiter;
    fire_obs = [];
    abandon_obs = [];
  }

let basic label peer kind = make_p label peer kind no_kids

let compound label kind arity =
  make_p label (-1) kind { arity; children = [||]; peers_cache = None }

let id t = t.key lsr id_shift
let kind t = kinds.(t.key land 7)
let label t = t.label
let signal ?(label = "") () = basic label (-1) Signal
let rpc_completion ?(label = "") ~peer () = basic label peer Rpc
let disk_completion ?(label = "") ~node () = basic label node Disk
let timer_kind ?(label = "") () = basic label (-1) Timer
let quorum ?(label = "") arity = compound label Quorum arity
let and_ ?(label = "") () = compound label And_ All
let or_ ?(label = "") () = compound label Or_ Any
let is_ready t = t.state land ready_bit <> 0
let is_abandoned t = t.state land abandoned_bit <> 0
let child_count t = n_children_of t
let children t = List.init (n_children_of t) (fun i -> t.kids.children.(i))

let iter_children t f =
  for i = 0 to n_children_of t - 1 do
    f t.kids.children.(i)
  done

let ready_children t = n_ready_of t
let is_compound t = t.key land 7 >= 4

let required t =
  if not (is_compound t) then 1
  else
    match t.kids.arity with
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
  let kids = parent.kids in
  let n = n_children_of parent in
  let cap = Array.length kids.children in
  if n = cap then begin
    let bigger =
      if cap = 0 then [| dummy; dummy; dummy; dummy; dummy; dummy |]
      else Array.make (2 * cap) dummy
    in
    Array.blit kids.children 0 bigger 0 n;
    kids.children <- bigger
  end;
  kids.children.(n) <- child;
  parent.state <- parent.state + one_child

(* see the [peers_cache] invariant: stopping at an uncached compound is
   safe; every parent is a compound *)
let rec invalidate_peers t =
  match t.kids.peers_cache with
  | None -> ()
  | Some _ ->
    t.kids.peers_cache <- None;
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

let on_fire t f =
  if t.state land ready_bit <> 0 then f ()
  else if t.waiter == no_waiter && t.fire_obs == [] then t.waiter <- f
  else t.fire_obs <- f :: t.fire_obs

(* [l] without its first [f], physically [l] when [f] is absent: a drop
   copies only the prefix before [f], and [Sched.reset] drops them all *)
let rec without f = function
  | [] -> []
  | g :: tl as l ->
    if g == f then tl
    else
      let tl' = without f tl in
      if tl' == tl then l else g :: tl'

let drop_waiter t f =
  if t.waiter == f then t.waiter <- no_waiter else t.fire_obs <- without f t.fire_obs

let rearm t = t.state <- t.state land lnot ready_bit

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
        let child = t.kids.children.(i) in
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
  if not (is_compound t) then (if peer_of t < 0 then [] else [ peer_of t ])
  else
    match t.kids.peers_cache with
    | Some l -> l
    | None ->
      (* merge the children's peer lists (cached for compounds),
         deduplicating by first occurrence — identical to a DFS pre-order
         of the tree. A compound has a handful of peers, so a scan of
         those gathered so far beats building a table *)
      let out = ref [] in
      for i = 0 to n_children_of t - 1 do
        List.iter
          (fun p -> if not (mem_peer p !out) then out := p :: !out)
          (peers t.kids.children.(i))
      done;
      let l = List.rev !out in
      t.kids.peers_cache <- Some l;
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
      let c = e.kids.children.(i) in
      if (e_pending && c.state land live_mask = abandoned_bit) || can_stall c p then
        incr stallable
    done;
    n_children_of e - !stallable < required e
  end

let stallers t = List.filter (can_stall t) (peers t)
