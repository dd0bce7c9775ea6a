type ('req, 'resp) frame =
  | Req of { id : int; body : 'req }
  | Resp of { id : int; body : 'resp option }  (* the handler's [Some], as built *)
  | Vacant  (* an empty ring slot of the network; never sent *)

(* A call is live until it is responded or abandoned; while live it is in
   [calls], and [src] is charged [bytes]. *)
type 'resp call = {
  id : int;
  ev : Depfast.Event.t;
  mutable resp : 'resp option;
  src : Node.t;
  bytes : int;
  book : 'resp book;  (* the rpc's, shared by its calls *)
}

and 'resp book = {
  calls : (int, 'resp call) Hashtbl.t;  (* the live calls, by id *)
  outstanding : (int, int) Hashtbl.t;  (* node id -> bytes charged *)
}

type ('req, 'resp) t = {
  sched : Depfast.Sched.t;
  net : ('req, 'resp) frame Net.t;
  book : 'resp book;
  handlers : (int, src:int -> 'req -> 'resp option) Hashtbl.t;
  mutable next_id : int;
  mutable discard_stragglers : bool;
  mutable discarded : int;
}

(* the per-call buffer charged to the caller's memory *)
let request_bytes = 512

(* no call in flight, ids from 1; the handlers are wiring and stay *)
let reset_calls t =
  Hashtbl.reset t.book.calls;
  Hashtbl.reset t.book.outstanding;
  t.next_id <- 0;
  t.discarded <- 0

(* the network resets itself at [Net.create]: its stream is split once *)
let create sched ?latency () =
  let t =
    {
      sched;
      net = Net.create sched ?latency ~filler:Vacant ();
      book = { calls = Hashtbl.create 16; outstanding = Hashtbl.create 16 };
      handlers = Hashtbl.create 16;
      next_id = 0;
      discard_stragglers = true;
      discarded = 0;
    }
  in
  reset_calls t;
  t

let reset t =
  Net.reset t.net;
  reset_calls t

let partition t a b = Net.partition t.net a b
let heal t a b = Net.heal t.net a b
let set_discard_stragglers t b = t.discard_stragglers <- b
let discarded_responses t = t.discarded

let charged outstanding node =
  match Hashtbl.find outstanding node with b -> b | exception Not_found -> 0

let outstanding_bytes t ~node = charged t.book.outstanding node
let net_totals t = Net.totals t.net
let set_choice_mode t b = Net.set_choice_mode t.net b
let set_net_sanitizer t f = Net.set_sanitizer t.net f

let charge outstanding node bytes =
  Hashtbl.replace outstanding node (charged outstanding node + bytes)

(* [c] itself, not a call of an earlier run that had its id *)
let live (c : _ call) = match Hashtbl.find c.book.calls c.id with d -> d == c | exception Not_found -> false

(* the call is over (responded or abandoned): drop its entry and free its
   buffer, once *)
let finish (c : _ call) =
  Hashtbl.remove c.book.calls c.id;
  Memory.free (Node.memory c.src) c.bytes;
  charge c.book.outstanding (Node.id c.src) (-c.bytes)

(* a reply to an id no call holds: each id is answered at most once, so
   its call was abandoned before the reply came; or to a call whose event
   alone was abandoned *)
let discard t = t.discarded <- t.discarded + 1

let handle_frame t me ~src frame =
  match frame with
  | Req { id; body } -> (
    match Hashtbl.find t.handlers (Node.id me) with
    | exception Not_found -> ()
    | handler ->
      Node.spawn me ~name:"rpc.handler" (fun () ->
          match handler ~src body with
          | None -> ()
          | resp -> Net.send t.net ~units:0 ~src:(Node.id me) ~dst:src (Resp { id; body = resp })))
  | Resp { id; body } -> (
    match Hashtbl.find t.book.calls id with
    | exception Not_found -> discard t
    | call ->
      finish call;
      if Depfast.Event.is_abandoned call.ev then discard t
      else begin
        call.resp <- body;
        Depfast.Event.fire call.ev
      end)
  | Vacant -> ()

let attach t node =
  Net.register t.net node ~handler:(fun ~src frame -> handle_frame t node ~src frame)

let serve t ~node ~handler =
  attach t node;
  Hashtbl.replace t.handlers (Node.id node) handler

(* completion labels, [Some] included, built once for a cluster's node ids *)
let rpc_labels = Array.init 64 (fun dst -> Some (Printf.sprintf "rpc->%d" dst))
let label_of dst =
  if dst >= 0 && dst < Array.length rpc_labels then rpc_labels.(dst)
  else Some (Printf.sprintf "rpc->%d" dst)

let call t ~src ~dst ?bytes body =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let bytes = Option.value ~default:request_bytes bytes in
  let src_id = Node.id src in
  Memory.alloc (Node.memory src) bytes;
  charge t.book.outstanding src_id bytes;
  let ev =
    Depfast.Event.rpc_completion ?label:(label_of dst) ~peer:dst ()
  in
  let c = { id; ev; resp = None; src; bytes; book = t.book } in
  Hashtbl.replace t.book.calls id c;
  Net.send t.net ~units:bytes ~src:src_id ~dst (Req { id; body });
  c

let id c = c.id
let event c = c.ev
let response c = c.resp
(* the buffer is freed before the event's abandon observers run *)
let abandon c =
  if live c then begin
    finish c;
    Depfast.Event.abandon c.ev
  end

(* a finished call has left [calls] *)
let abandon_id t id =
  match Hashtbl.find t.book.calls id with c -> abandon c | exception Not_found -> ()

let broadcast t ~src ~dsts ~arity ?bytes ?(label = "broadcast") body =
  let q = Depfast.Event.quorum ~label arity in
  let calls = List.map (fun dst -> call t ~src ~dst ?bytes body) dsts in
  List.iter (fun c -> Depfast.Event.add q ~child:c.ev) calls;
  if t.discard_stragglers then
    Depfast.Event.on_fire q (fun () -> List.iter abandon calls);
  (q, calls)
