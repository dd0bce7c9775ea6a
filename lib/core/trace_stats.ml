type key = By_label | By_node | By_edge

type cell = { hist : Sim.Hist.t; mutable timeouts : int }

(* [cells] is keyed by the rendered name. By_node and By_edge waits find
   their cell through [by_id] instead, keyed by the node or the
   (node, peer) pair packed into one int, so a name is rendered once per
   distinct key, not per wait. *)
type t = { key : key; cells : (string, cell) Hashtbl.t; by_id : (int, cell) Hashtbl.t }

let create key = { key; cells = Hashtbl.create 32; by_id = Hashtbl.create 32 }

let cell_of t name =
  match Hashtbl.find t.cells name with
  | c -> c
  | exception Not_found ->
    let c = { hist = Sim.Hist.create (); timeouts = 0 } in
    Hashtbl.replace t.cells name c;
    c

(* node ids are small and peers are node ids, so [node * edge_base + peer]
   is injective; By_node passes [peer = -1] *)
let edge_base = 1 lsl 30

let cell_at t ~node ~peer =
  let id = (node * edge_base) + peer in
  match Hashtbl.find t.by_id id with
  | c -> c
  | exception Not_found ->
    let name =
      if peer < 0 then Printf.sprintf "n%d" node else Printf.sprintf "n%d->n%d" node peer
    in
    let c = cell_of t name in
    Hashtbl.replace t.by_id id c;
    c

let add c trace i =
  Sim.Hist.add c.hist (Sim.Time.diff (Trace.t_end trace i) (Trace.t_start trace i));
  match Trace.outcome trace i with
  | Trace.Timed_out -> c.timeouts <- c.timeouts + 1
  | Trace.Ready -> ()

let rec add_edges t trace i node = function
  | [] -> ()
  | peer :: rest ->
    if peer <> node then add (cell_at t ~node ~peer) trace i;
    add_edges t trace i node rest

let observe t trace i =
  match t.key with
  | By_label ->
    let label = Event.label (Trace.event trace i) in
    add (cell_of t (if label = "" then "(unnamed)" else label)) trace i
  | By_node -> add (cell_at t ~node:(Trace.node trace i) ~peer:(-1)) trace i
  | By_edge -> add_edges t trace i (Trace.node trace i) (Event.peers (Trace.event trace i))

let attach t trace = Trace.on_wait trace (observe t trace)

let of_trace key trace =
  let t = create key in
  for i = 0 to Trace.wait_count trace - 1 do
    observe t trace i
  done;
  t

let keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.cells [])
let histogram t name = Option.map (fun c -> c.hist) (Hashtbl.find_opt t.cells name)
let timeouts t name = match Hashtbl.find_opt t.cells name with Some c -> c.timeouts | None -> 0
