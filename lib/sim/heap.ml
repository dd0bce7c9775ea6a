type handle = { mutable live : bool }

type 'a entry = { time : Time.t; seq : int; value : 'a; h : handle }

type 'a t = {
  mutable arr : 'a entry option array;
  mutable len : int;
  mutable seq : int;
  mutable alive : int;
}

let create () = { arr = Array.make 16 None; len = 0; seq = 0; alive = 0 }
let is_empty t = t.alive = 0
let size t = t.alive

let entry_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let get t i =
  match t.arr.(i) with Some e -> e | None -> assert false

let swap t i j =
  let tmp = t.arr.(i) in
  t.arr.(i) <- t.arr.(j);
  t.arr.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt (get t i) (get t parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && entry_lt (get t l) (get t !smallest) then smallest := l;
  if r < t.len && entry_lt (get t r) (get t !smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let arr = Array.make (2 * Array.length t.arr) None in
  Array.blit t.arr 0 arr 0 t.len;
  t.arr <- arr

let push t ~time value =
  if t.len = Array.length t.arr then grow t;
  let h = { live = true } in
  t.arr.(t.len) <- Some { time; seq = t.seq; value; h };
  t.seq <- t.seq + 1;
  t.len <- t.len + 1;
  t.alive <- t.alive + 1;
  sift_up t (t.len - 1);
  h

let cancel t h =
  if h.live then begin
    h.live <- false;
    t.alive <- t.alive - 1
  end

let cancelled h = not h.live

let pop_root t =
  let e = get t 0 in
  t.len <- t.len - 1;
  t.arr.(0) <- t.arr.(t.len);
  t.arr.(t.len) <- None;
  if t.len > 0 then sift_down t 0;
  e

(* drop cancelled roots; callers must re-count [alive] themselves *)
let rec drop_dead t =
  if t.len > 0 && not (get t 0).h.live then begin
    ignore (pop_root t);
    drop_dead t
  end

let peek_time t =
  drop_dead t;
  if t.len = 0 then None else Some (get t 0).time

let peek_or t ~default =
  drop_dead t;
  if t.len = 0 then default else (get t 0).value

let pop t =
  drop_dead t;
  if t.len = 0 then None
  else begin
    let e = pop_root t in
    e.h.live <- false;
    t.alive <- t.alive - 1;
    Some (e.time, e.value)
  end

let take_or t ~default =
  drop_dead t;
  if t.len = 0 then default
  else begin
    let e = pop_root t in
    e.h.live <- false;
    t.alive <- t.alive - 1;
    e.value
  end
