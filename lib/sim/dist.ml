type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Normal of float * float
  | Lognormal of float * float
  | Pareto of float * float
  | Shifted of float * t
  | Scaled of float * t

(* The dev profile compiles with -opaque, so a float that crosses a module
   boundary, or leaves a function that is not inlined, is boxed. The draw
   below therefore stays in one inlined body: the uniform comes from
   [Rng.bits53] and is scaled here, and the [Shifted]/[Scaled] wrappers are
   applied by a loop instead of a float-returning recursion. The result is
   the recursive definition's, operation for operation. *)

let[@inline] unit_float rng = float_of_int (Rng.bits53 rng) *. (1.0 /. 9007199254740992.0)

(* wrappers around the base distribution *)
let rec depth = function Shifted (_, d) | Scaled (_, d) -> 1 + depth d | _ -> 0

(* the distribution [i] wrappers deep *)
let rec nth d i =
  if i = 0 then d else match d with Shifted (_, d) | Scaled (_, d) -> nth d (i - 1) | d -> d

let[@inline] draw rng d =
  let n = depth d in
  let x =
    ref
      (match nth d n with
      | Constant x -> x
      | Uniform (lo, hi) -> lo +. (unit_float rng *. (hi -. lo))
      | Exponential mean ->
        let u = 1.0 -. unit_float rng in
        -.mean *. log u
      | Normal (mean, std) ->
        (* Box-Muller; one draw per call keeps the stream simple *)
        let u1 = 1.0 -. unit_float rng in
        let u2 = unit_float rng in
        mean +. (std *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
      | Lognormal (mu, sigma) ->
        let u1 = 1.0 -. unit_float rng in
        let u2 = unit_float rng in
        let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
        exp (mu +. (sigma *. z))
      | Pareto (scale, shape) ->
        let u = 1.0 -. unit_float rng in
        scale /. (u ** (1.0 /. shape))
      | Shifted _ | Scaled _ -> assert false (* [nth d (depth d)] is no wrapper *))
  in
  (* innermost wrapper first, as the recursion unwinds *)
  for i = n - 1 downto 0 do
    match nth d i with
    | Shifted (off, _) -> x := off +. !x
    | Scaled (k, _) -> x := k *. !x
    | _ -> ()
  done;
  (* [Float.max 0.0 !x], spelled out *)
  if !x > 0.0 || Float.is_nan !x then !x else 0.0

let sample rng d = draw rng d

(* [Time.of_us_f], spelled out *)
let sample_span rng d = int_of_float (Float.round (draw rng d))

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
    let u = unit_float rng in
    let uz = u *. zeta in
    if uz < 1.0 then 0
    else if uz < zeta2 then 1
    else
      let rank = float_of_int n *. (((eta *. u) -. eta +. 1.0) ** alpha) in
      let r = int_of_float rank in
      if r >= n then n - 1 else r
