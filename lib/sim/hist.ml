(* Logarithmic bucketing: values < 64 are exact; above that, each power of
   two is split into 32 sub-buckets (top 6 significant bits), giving <= ~3%
   relative quantile error, plenty for latency reporting.

   [add] is O(1) and allocation-free: the running sum lives in a one-slot
   flat float array (unboxed stores — a mutable float field in a mixed
   record would box on every assignment), and the msb is found by a
   five-step branchless binary search rather than a shift loop. *)

let sub = 64
let max_exp = 62
let nbuckets = sub + ((max_exp - 6 + 1) * 32)

type t = {
  buckets : int array;
  mutable count : int;
  sum : float array;  (* [| sum |], kept unboxed *)
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  {
    buckets = Array.make nbuckets 0;
    count = 0;
    sum = Array.make 1 0.0;
    min_v = max_int;
    max_v = 0;
  }

(* position of most significant set bit; v > 0. Binary search over the bit
   ranges: 5 well-predicted compares instead of up to 62 loop iterations
   (values here are microsecond spans, so v < 2^32 after the first step). *)
let msb v =
  let k = ref 0 in
  let v = ref v in
  if !v >= 1 lsl 32 then begin
    k := !k + 32;
    v := !v lsr 32
  end;
  if !v >= 1 lsl 16 then begin
    k := !k + 16;
    v := !v lsr 16
  end;
  if !v >= 1 lsl 8 then begin
    k := !k + 8;
    v := !v lsr 8
  end;
  if !v >= 1 lsl 4 then begin
    k := !k + 4;
    v := !v lsr 4
  end;
  if !v >= 1 lsl 2 then begin
    k := !k + 2;
    v := !v lsr 2
  end;
  if !v >= 2 then k := !k + 1;
  !k

let index_of v =
  if v < sub then v
  else
    let k = msb v in
    let m = v lsr (k - 5) in
    sub + ((k - 6) * 32) + (m - 32)

let upper_bound_of idx =
  if idx < sub then idx
  else
    let k = 6 + ((idx - sub) / 32) in
    let m = 32 + ((idx - sub) mod 32) in
    ((m + 1) lsl (k - 5)) - 1

let add t v =
  let v = if v < 0 then 0 else v in
  let i = index_of v in
  Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + 1);
  t.count <- t.count + 1;
  Array.unsafe_set t.sum 0 (Array.unsafe_get t.sum 0 +. float_of_int v);
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0.0 else t.sum.(0) /. float_of_int t.count

let quantile t q =
  if t.count = 0 then 0
  else
    let target =
      let x = int_of_float (ceil (q *. float_of_int t.count)) in
      if x < 1 then 1 else if x > t.count then t.count else x
    in
    let rec go idx acc =
      if idx >= nbuckets then t.max_v
      else
        let acc = acc + t.buckets.(idx) in
        if acc >= target then min (upper_bound_of idx) t.max_v else go (idx + 1) acc
    in
    go 0 0

let p99 t = quantile t 0.99
let merge a b =
  let t = create () in
  Array.blit a.buckets 0 t.buckets 0 nbuckets;
  Array.iteri (fun i v -> t.buckets.(i) <- t.buckets.(i) + v) b.buckets;
  t.count <- a.count + b.count;
  t.sum.(0) <- a.sum.(0) +. b.sum.(0);
  t.min_v <- min a.min_v b.min_v;
  t.max_v <- max a.max_v b.max_v;
  t

let clear t =
  Array.fill t.buckets 0 nbuckets 0;
  t.count <- 0;
  t.sum.(0) <- 0.0;
  t.min_v <- max_int;
  t.max_v <- 0
