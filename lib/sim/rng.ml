(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh int64 on every draw. With [mix64] and [bits64]
   inlined, the arithmetic below stays in registers, so a draw that ends in
   an [int] or [bool] allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* native-endian and unchecked: the state is only ever read back by the
   same primitives, and every [t] is exactly 8 bytes *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] state t = get64 t 0

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let reseed t seed = set64 t 0 seed

let create seed =
  let t = Bytes.create 8 in
  reseed t seed;
  t

let[@inline] bits64 t =
  let s = Int64.add (state t) golden_gamma in
  set64 t 0 s;
  mix64 s

let split_into t ~into =
  let seed = bits64 t in
  (* re-mix with a distinct constant so split streams do not collide with
     the parent's own output stream *)
  reseed into (mix64 (Int64.logxor seed 0xA5A5A5A5DEADBEEFL))

let split t =
  let into = Bytes.create 8 in
  split_into t ~into;
  into

let int t bound =
  assert (bound > 0);
  (* keep 62 bits so the value fits a native int on 64-bit platforms *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
