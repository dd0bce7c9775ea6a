open Sim

type 'msg endpoint = {
  node : Node.t;
  handler : src:int -> 'msg -> unit;
  mutable out : 'msg link option array;  (* outgoing links, indexed by dst id *)
}

(* One outbox per directed link: a FIFO ring of in-flight messages drained
   by a single reusable pump callback. This replaces the previous
   (src,dst)-keyed hashtable and the per-message delivery closure — steady
   state sends allocate nothing beyond the ring slots themselves. *)
and 'msg link = {
  link_src : int;
  link_dst : int;
  link_tag : Engine.tag;  (* [Link (src, dst)], built once *)
  mutable ring : 'msg array;  (* lazily sized from the first message *)
  mutable times : Time.t array;  (* parallel: absolute arrival per slot *)
  mutable units : int array;  (* parallel: bytes-equivalent per slot *)
  mutable seqs : int array;  (* parallel: per-link send sequence number *)
  mutable head : int;
  mutable len : int;
  mutable next_seq : int;  (* send counter, for the FIFO sanitizer *)
  mutable last_seq : int;  (* last delivered seq; must strictly increase *)
  mutable last_arrival : Time.t;  (* FIFO clamp: arrivals strictly increase *)
  mutable armed : bool;  (* a pump callback is scheduled *)
  mutable timer : Engine.timer;  (* the pump's, re-armed for every delivery *)
  mutable pump : unit -> unit;  (* the one reusable delivery thunk *)
  mutable cpump : unit -> unit;  (* choice-mode: deliver exactly one *)
  mutable l_delivered : int;
  mutable l_dropped : int;
  mutable l_units : int;  (* units actually delivered *)
}

type stats = { delivered : int; dropped : int; units : int }

type 'msg t = {
  sched : Depfast.Sched.t;
  latency : Dist.t;
  filler : 'msg;  (* what a vacated ring slot holds, so it keeps no message *)
  rng : Rng.t;
  mutable eps : 'msg endpoint option array;  (* indexed by node id *)
  cuts : (int, unit) Hashtbl.t;  (* keyed by [cut_key] *)
  mutable sorted_nodes : Node.t list;  (* cache, rebuilt on register *)
  mutable sorted_valid : bool;
  mutable delivered : int;
  mutable dropped : int;
  mutable units_total : int;
  mutable choice : bool;  (* delivery order is a chooser decision *)
  mutable on_violation : (string -> unit) option;  (* FIFO sanitizer *)
}

let no_arrival = Time.add Time.zero (-1)

(* empty, its pump re-armed in place; the ring keeps its capacity and
   lets go of the messages it held *)
let reset_link filler link =
  Array.fill link.ring 0 (Array.length link.ring) filler;
  link.head <- 0;
  link.len <- 0;
  link.next_seq <- 0;
  link.last_seq <- -1;
  link.last_arrival <- no_arrival;
  link.armed <- false;
  link.l_delivered <- 0;
  link.l_dropped <- 0;
  link.l_units <- 0

(* a stream re-split from the engine's root, no cut, no message in flight,
   zero counters. Endpoints, links and the settings made after [create]
   (choice mode, sanitizer) stay *)
let reset t =
  Rng.split_into (Engine.rng (Depfast.Sched.engine t.sched)) ~into:t.rng;
  Hashtbl.reset t.cuts;
  (* loops, not [Array.iter]: a closure over [t] would be built per reset *)
  for i = 0 to Array.length t.eps - 1 do
    match t.eps.(i) with
    | Some ep ->
      for j = 0 to Array.length ep.out - 1 do
        match ep.out.(j) with Some l -> reset_link t.filler l | None -> ()
      done
    | None -> ()
  done;
  t.delivered <- 0;
  t.dropped <- 0;
  t.units_total <- 0

let create sched ?(latency = Dist.Shifted (120.0, Dist.Exponential 30.0)) ~filler () =
  let t =
    {
      sched;
      latency;
      filler;
      rng = Rng.create 0L;
      eps = Array.make 16 None;
      cuts = Hashtbl.create 4;
      sorted_nodes = [];
      sorted_valid = true;
      delivered = 0;
      dropped = 0;
      units_total = 0;
      choice = false;
      on_violation = None;
    }
  in
  reset t;
  t

let set_choice_mode t b = t.choice <- b
let set_sanitizer t f = t.on_violation <- Some f

let grow_slots arr want =
  let cap = Array.length arr in
  if want < cap then arr
  else begin
    let next = Array.make (max (want + 1) (2 * cap)) None in
    Array.blit arr 0 next 0 cap;
    next
  end

let register t node ~handler =
  let id = Node.id node in
  t.eps <- grow_slots t.eps id;
  (match t.eps.(id) with
  | Some ep when ep.node != node ->
    invalid_arg (Printf.sprintf "Net.register: node id %d is already taken" id)
  | Some _ | None -> ());
  t.eps.(id) <- Some { node; handler; out = [||] };
  t.sorted_valid <- false

let ep_opt t id = if id < 0 || id >= Array.length t.eps then None else t.eps.(id)

let nodes t =
  if not t.sorted_valid then begin
    let acc = ref [] in
    for i = Array.length t.eps - 1 downto 0 do
      match t.eps.(i) with Some ep -> acc := ep.node :: !acc | None -> ()
    done;
    t.sorted_nodes <- !acc;
    t.sorted_valid <- true
  end;
  t.sorted_nodes

(* the unordered pair as one int, so the check on every send and
   delivery allocates no tuple *)
let cut_key a b = if a < b then (a lsl 32) lor b else (b lsl 32) lor a
let partition t a b = Hashtbl.replace t.cuts (cut_key a b) ()
let heal t a b = Hashtbl.remove t.cuts (cut_key a b)
let partitioned t a b = Hashtbl.mem t.cuts (cut_key a b)

(* ---------- link outboxes ---------- *)

(* Deliver the head message: liveness and partitions are re-checked at
   arrival time, exactly as the per-message closures used to. *)
let deliver_head t link =
  let cap = Array.length link.ring in
  let slot = link.head in
  let msg = Array.unsafe_get link.ring slot in
  let u = Array.unsafe_get link.units slot in
  let sq = Array.unsafe_get link.seqs slot in
  (* delivered or dropped, the message leaves the ring *)
  Array.unsafe_set link.ring slot t.filler;
  link.head <- (slot + 1) mod cap;
  link.len <- link.len - 1;
  (* per-link FIFO invariant: delivered send-sequence numbers strictly
     increase (drops leave gaps; reordering would be an engine bug) *)
  (match t.on_violation with
  | Some report when sq <= link.last_seq ->
    report
      (Printf.sprintf "net: link %d->%d delivered seq %d after seq %d (FIFO violation)"
         link.link_src link.link_dst sq link.last_seq)
  | _ -> ());
  link.last_seq <- sq;
  match ep_opt t link.link_dst with
  | Some dep when Node.alive dep.node && not (partitioned t link.link_src link.link_dst)
    ->
    link.l_delivered <- link.l_delivered + 1;
    link.l_units <- link.l_units + u;
    t.delivered <- t.delivered + 1;
    t.units_total <- t.units_total + u;
    dep.handler ~src:link.link_src msg
  | Some _ | None ->
    link.l_dropped <- link.l_dropped + 1;
    t.dropped <- t.dropped + 1

let arm t link =
  link.armed <- true;
  let engine = Depfast.Sched.engine t.sched in
  if t.choice then
    (* delivery order across links is a chooser decision: one enabled
       transition per non-empty link, delivering exactly the head *)
    Engine.post_tag engine link.link_tag link.cpump
  else begin
    let delay = Time.diff link.times.(link.head) (Engine.now engine) in
    link.timer <- Engine.reschedule engine link.timer ~delay link.link_tag link.pump
  end

let rec pump t link () =
  link.armed <- false;
  if link.len > 0 then begin
    let now = Engine.now (Depfast.Sched.engine t.sched) in
    (* arrivals on a link are strictly increasing, so this normally
       delivers exactly the head *)
    while link.len > 0 && link.times.(link.head) <= now do
      deliver_head t link
    done;
    if link.len > 0 && not link.armed then arm t link
  end

(* choice-mode pump: deliver exactly one message, then re-arm — each
   delivery is its own transition, so the explorer can interleave other
   links' (and coroutines') work between any two deliveries *)
and choice_pump t link () =
  link.armed <- false;
  if link.len > 0 then begin
    deliver_head t link;
    if link.len > 0 && not link.armed then arm t link
  end

and make_link t ~src ~dst =
  let link =
    {
      link_src = src;
      link_dst = dst;
      link_tag = Engine.Link (src, dst);
      ring = [||];
      times = [||];
      units = [||];
      seqs = [||];
      head = 0;
      len = 0;
      next_seq = 0;
      last_seq = -1;
      last_arrival = no_arrival;
      armed = false;
      timer = Engine.unarmed;
      pump = ignore;
      cpump = ignore;
      l_delivered = 0;
      l_dropped = 0;
      l_units = 0;
    }
  in
  link.pump <- pump t link;
  link.cpump <- choice_pump t link;
  link

let link_for t sep ~src ~dst =
  if dst >= Array.length sep.out then begin
    let next = Array.make (max (dst + 1) (2 * max 4 (Array.length sep.out))) None in
    Array.blit sep.out 0 next 0 (Array.length sep.out);
    sep.out <- next
  end;
  match sep.out.(dst) with
  | Some l -> l
  | None ->
    let l = make_link t ~src ~dst in
    sep.out.(dst) <- Some l;
    l

let ensure_room t link =
  let cap = Array.length link.ring in
  if cap = 0 then begin
    link.ring <- Array.make 8 t.filler;
    link.times <- Array.make 8 Time.zero;
    link.units <- Array.make 8 0;
    link.seqs <- Array.make 8 0
  end
  else if link.len = cap then begin
    (* a full ring twice over is a ring of twice the room holding the same
       queue from the same head; and [Array.append] copies, where
       [Array.make] past 256 words with a young message forces a minor
       collection (DESIGN §10) *)
    link.ring <- Array.append link.ring link.ring;
    (* the queue runs from [head] for [cap] slots; the copies around it
       are vacant *)
    Array.fill link.ring 0 link.head t.filler;
    Array.fill link.ring (link.head + cap) (cap - link.head) t.filler;
    link.times <- Array.append link.times link.times;
    link.units <- Array.append link.units link.units;
    link.seqs <- Array.append link.seqs link.seqs
  end

let enqueue t link msg ~units ~arrival =
  ensure_room t link;
  let cap = Array.length link.ring in
  let slot = (link.head + link.len) mod cap in
  Array.unsafe_set link.ring slot msg;
  Array.unsafe_set link.times slot arrival;
  Array.unsafe_set link.units slot units;
  Array.unsafe_set link.seqs slot link.next_seq;
  link.next_seq <- link.next_seq + 1;
  link.len <- link.len + 1;
  if not link.armed then arm t link

let send t ~units ~src ~dst msg =
  match (ep_opt t src, ep_opt t dst) with
  | Some sep, Some dep ->
    let link = link_for t sep ~src ~dst in
    if (not (Node.alive sep.node)) || partitioned t src dst then begin
      link.l_dropped <- link.l_dropped + 1;
      t.dropped <- t.dropped + 1
    end
    else if t.choice then
      (* explore mode abstracts latency: the message is in flight now and
         the chooser decides when (relative to everything else) it lands *)
      enqueue t link msg ~units
        ~arrival:(Engine.now (Depfast.Sched.engine t.sched))
    else begin
      let delay =
        Dist.sample_span t.rng t.latency
        + Node.nic_delay sep.node + Node.nic_delay dep.node
      in
      (* links are TCP-like: delivery on a directed link is FIFO, so a
         message never overtakes an earlier one *)
      let engine = Depfast.Sched.engine t.sched in
      let arrival = Time.add (Engine.now engine) delay in
      let arrival =
        if link.last_arrival >= arrival then Time.add link.last_arrival 1
        else arrival
      in
      link.last_arrival <- arrival;
      enqueue t link msg ~units ~arrival
    end
  | _ -> t.dropped <- t.dropped + 1

let delivered_count t = t.delivered
let totals t = { delivered = t.delivered; dropped = t.dropped; units = t.units_total }

let stats t ~src ~dst =
  match ep_opt t src with
  | Some sep when dst < Array.length sep.out -> (
    match sep.out.(dst) with
    | Some l -> { delivered = l.l_delivered; dropped = l.l_dropped; units = l.l_units }
    | None -> { delivered = 0; dropped = 0; units = 0 })
  | _ -> { delivered = 0; dropped = 0; units = 0 }
