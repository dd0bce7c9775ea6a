type t = {
  qname : string;
  file : string;
  line : int;
  mutable suspends : bool;
  mutable acquires : string list;
  mutable reads : string list;
  mutable writes : string list;
}

let create ~qname ~file ~line =
  {
    qname;
    file;
    line;
    suspends = false;
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

let add_acquire t l = t.acquires <- union t.acquires [ l ]
let add_read t c = t.reads <- union t.reads [ c ]
let add_write t c = t.writes <- union t.writes [ c ]
