type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Normal of float * float
  | Lognormal of float * float
  | Pareto of float * float
  | Shifted of float * t
  | Scaled of float * t

let rec sample_raw rng = function
  | Constant x -> x
  | Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
  | Exponential mean ->
    let u = 1.0 -. Rng.unit_float rng in
    -.mean *. log u
  | Normal (mean, std) ->
    (* Box-Muller; one draw per call keeps the stream simple *)
    let u1 = 1.0 -. Rng.unit_float rng in
    let u2 = Rng.unit_float rng in
    mean +. (std *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  | Lognormal (mu, sigma) ->
    let u1 = 1.0 -. Rng.unit_float rng in
    let u2 = Rng.unit_float rng in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    exp (mu +. (sigma *. z))
  | Pareto (scale, shape) ->
    let u = 1.0 -. Rng.unit_float rng in
    scale /. (u ** (1.0 /. shape))
  | Shifted (off, d) -> off +. sample_raw rng d
  | Scaled (k, d) -> k *. sample_raw rng d

let sample rng d = Float.max 0.0 (sample_raw rng d)
let sample_span rng d = Time.of_us_f (sample rng d)

let rec mean = function
  | Constant x -> x
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential m -> m
  | Normal (m, _) -> m
  | Lognormal (mu, sigma) -> exp (mu +. (sigma *. sigma /. 2.0))
  | Pareto (scale, shape) ->
    if shape <= 1.0 then infinity else scale *. shape /. (shape -. 1.0)
  | Shifted (off, d) -> off +. mean d
  | Scaled (k, d) -> k *. mean d

(* Zipfian sampling following Gray et al. ("Quickly generating
   billion-record synthetic databases"), as used by YCSB. *)
let make_zipfian ~n ~theta =
  assert (n > 0);
  let zeta =
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. (float_of_int i ** theta))
    done;
    !acc
  in
  let alpha = 1.0 /. (1.0 -. theta) in
  let zeta2 = 1.0 +. (0.5 ** theta) in
  let eta = (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta))) /. (1.0 -. (zeta2 /. zeta)) in
  fun rng ->
    let u = Rng.unit_float rng in
    let uz = u *. zeta in
    if uz < 1.0 then 0
    else if uz < zeta2 then 1
    else
      let rank = float_of_int n *. (((eta *. u) -. eta +. 1.0) ** alpha) in
      let r = int_of_float rank in
      if r >= n then n - 1 else r
