type ret = Source_lint.kind option list

type t = {
  qname : string;
  file : string;
  line : int;
  params : string list;
  mutable ret : ret;
  mutable suspends : bool;
  mutable wait_params : int list;
  mutable acquires : string list;
  mutable reads : string list;
  mutable writes : string list;
}

let create ~qname ~file ~line ~params =
  {
    qname;
    file;
    line;
    params;
    ret = [];
    suspends = false;
    wait_params = [];
    acquires = [];
    reads = [];
    writes = [];
  }

let rec union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c > 0 then y :: union a ys
    else
      let r = union xs (if c = 0 then ys else b) in
      if r == xs then a else x :: r

let add_wait_param t i = t.wait_params <- union t.wait_params [ i ]
let add_acquire t l = t.acquires <- union t.acquires [ l ]
let add_read t c = t.reads <- union t.reads [ c ]
let add_write t c = t.writes <- union t.writes [ c ]

(* Fingerprint of the mutable facts, for fixpoint change detection. *)
let fingerprint t = (t.ret, t.suspends, t.wait_params, t.acquires, t.reads, t.writes)

let ret_string r =
  let comp = function
    | Some k -> Source_lint.kind_name k
    | None -> "-"
  in
  match r with
  | [] -> "?"
  | [ c ] -> comp c
  | cs -> "(" ^ String.concat ", " (List.map comp cs) ^ ")"

let to_string t =
  Printf.sprintf
    "%s (%s:%d): ret=%s suspends=%b wait_params=[%s] acquires=[%s] reads=[%s] writes=[%s]"
    t.qname t.file t.line (ret_string t.ret) t.suspends
    (String.concat ";" (List.map string_of_int t.wait_params))
    (String.concat ";" t.acquires)
    (String.concat ";" t.reads)
    (String.concat ";" t.writes)
