type t = int
type span = int

let zero = 0
let us n = n
let ms n = n * 1_000
let sec n = n * 1_000_000
let of_ms_f x = int_of_float (Float.round (x *. 1_000.))
let of_us_f x = int_of_float (Float.round x)
let to_ms_f s = float_of_int s /. 1_000.
let to_sec_f s = float_of_int s /. 1_000_000.
let add t s = t + s
let diff a b = a - b
