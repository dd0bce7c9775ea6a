(* Unit and property tests for the simulation substrate. *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_int "ms" 1_000 (Time.ms 1);
  check_int "sec" 1_000_000 (Time.sec 1);
  check_int "of_ms_f rounds" 1_500 (Time.of_ms_f 1.5);
  check_int "add" 1_100 (Time.add (Time.ms 1) (Time.us 100));
  check_int "diff" 900 (Time.diff (Time.ms 1) (Time.us 100));
  Alcotest.(check (float 1e-9)) "to_ms_f" 1.5 (Time.to_ms_f 1_500)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let c = Rng.split a in
  (* split stream differs from parent continuation *)
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.bits64 a <> Rng.bits64 c then differs := true
  done;
  check_bool "split differs" true !differs

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    check_bool "int in range" true (x >= 0 && x < 10);
    let y = Rng.int_in r 5 9 in
    check_bool "int_in range" true (y >= 5 && y <= 9);
    let b = Rng.bits53 r in
    check_bool "bits53 in range" true (b >= 0 && b < 1 lsl 53)
  done

let test_rng_uniformity () =
  let r = Rng.create 11L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Rng.int r 10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      check_bool "bucket near 0.1" true (frac > 0.08 && frac < 0.12))
    counts

let test_rng_shuffle_permutation () =
  let r = Rng.create 3L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Dist *)

let sample_mean d seed n =
  let r = Rng.create seed in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Dist.sample r d
  done;
  !acc /. float_of_int n

let test_dist_means () =
  let close what expected got tol =
    Alcotest.(check bool) what true (Float.abs (got -. expected) < tol)
  in
  close "constant" 5.0 (sample_mean (Dist.Constant 5.0) 1L 100) 1e-9;
  close "uniform" 10.0 (sample_mean (Dist.Uniform (5.0, 15.0)) 2L 50_000) 0.2;
  close "exponential" 4.0 (sample_mean (Dist.Exponential 4.0) 3L 100_000) 0.2;
  close "normal" 8.0 (sample_mean (Dist.Normal (8.0, 1.0)) 4L 50_000) 0.2;
  close "shifted" 12.0 (sample_mean (Dist.Shifted (8.0, Dist.Exponential 4.0)) 5L 100_000) 0.3;
  close "scaled" 8.0 (sample_mean (Dist.Scaled (2.0, Dist.Exponential 4.0)) 6L 100_000) 0.3

(* [Dist]'s draw is one inlined body, so that it boxes nothing; this is
   the recursive definition it unrolls, on the same uniform *)
let rec reference_raw r d =
  let unit () = float_of_int (Rng.bits53 r) *. (1.0 /. 9007199254740992.0) in
  match d with
  | Dist.Constant x -> x
  | Uniform (lo, hi) -> lo +. (unit () *. (hi -. lo))
  | Exponential mean ->
    let u = 1.0 -. unit () in
    -.mean *. log u
  | Normal (mean, std) ->
    let u1 = 1.0 -. unit () in
    let u2 = unit () in
    mean +. (std *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  | Lognormal (mu, sigma) ->
    let u1 = 1.0 -. unit () in
    let u2 = unit () in
    exp (mu +. (sigma *. (sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))))
  | Pareto (scale, shape) ->
    let u = 1.0 -. unit () in
    scale /. (u ** (1.0 /. shape))
  | Shifted (off, d) -> off +. reference_raw r d
  | Scaled (k, d) -> k *. reference_raw r d

let test_dist_draws_match_reference () =
  List.iter
    (fun d ->
      let a = Rng.create 5L and b = Rng.create 5L and c = Rng.create 5L in
      for _ = 1 to 2_000 do
        let x = Dist.sample a d in
        let expect = Float.max 0.0 (reference_raw c d) in
        if Int64.bits_of_float x <> Int64.bits_of_float expect then
          Alcotest.failf "sample: %h, the recursive definition gives %h" x expect;
        check_int "sample_span = Time.of_us_f sample" (Time.of_us_f x) (Dist.sample_span b d)
      done)
    Dist.
      [
        Constant 5.0;
        Constant (-2.0);
        Uniform (5.0, 15.0);
        Exponential 30.0;
        Normal (0.5, 5.0);
        Lognormal (1.0, 0.5);
        Pareto (500.0, 1.8);
        Shifted (120.0, Exponential 30.0);
        Shifted (500.0, Pareto (500.0, 1.8));
        Scaled (2.0, Shifted (-3.0, Normal (1.0, 4.0)));
        Shifted (0.25, Scaled (3.0, Shifted (-1.5, Uniform (0.0, 1.0))));
      ]

let test_dist_nonnegative () =
  let r = Rng.create 13L in
  for _ = 1 to 10_000 do
    check_bool "nonneg" true (Dist.sample r (Dist.Normal (0.5, 5.0)) >= 0.0)
  done

let test_dist_analytic_mean () =
  Alcotest.(check (float 1e-9)) "uniform mean" 10.0 (Dist.mean (Dist.Uniform (5.0, 15.0)));
  Alcotest.(check (float 1e-9)) "pareto inf" infinity (Dist.mean (Dist.Pareto (1.0, 0.9)));
  Alcotest.(check (float 1e-6)) "pareto finite" 3.0 (Dist.mean (Dist.Pareto (2.0, 3.0)))

let test_zipfian_skew () =
  let r = Rng.create 21L in
  let sample = Dist.make_zipfian ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = sample r in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 must dominate and ordering must be roughly decreasing *)
  check_bool "head heavy" true (counts.(0) > counts.(500) * 10);
  check_bool "rank0 > rank9" true (counts.(0) > counts.(9))

let test_zipfian_uniform_theta0 () =
  (* theta -> 0 approaches uniform *)
  let r = Rng.create 22L in
  let sample = Dist.make_zipfian ~n:100 ~theta:0.01 in
  let counts = Array.make 100 0 in
  for _ = 1 to 100_000 do
    counts.(sample r) <- counts.(sample r) + 1
  done;
  let mx = Array.fold_left max 0 counts and mn = Array.fold_left min max_int counts in
  check_bool "roughly uniform" true (float_of_int mx /. float_of_int mn < 2.0)

(* ------------------------------------------------------------------ *)
(* Hist *)

let test_hist_basic () =
  let h = Hist.create () in
  check_int "empty count" 0 (Hist.count h);
  check_int "empty quantile" 0 (Hist.p99 h);
  List.iter (Hist.add h) [ 10; 20; 30; 40; 50 ];
  check_int "count" 5 (Hist.count h);
  check_int "min" 10 (Hist.min_value h);
  check_int "max" 50 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 30.0 (Hist.mean h)

let test_hist_small_exact () =
  (* values < 64 are recorded exactly *)
  let h = Hist.create () in
  for v = 0 to 63 do
    Hist.add h v
  done;
  check_int "p50 exact" 31 (Hist.quantile h 0.5);
  check_int "p100 exact" 63 (Hist.quantile h 1.0)

let test_hist_quantile_vs_sorted =
  QCheck.Test.make ~name:"hist quantile close to exact quantile" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 500) (int_bound 1_000_000)) (float_range 0.0 1.0))
    (fun (values, q) ->
      QCheck.assume (values <> []);
      let q = Float.max 0.01 q in
      let h = Sim.Hist.create () in
      List.iter (Sim.Hist.add h) values;
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let idx = min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)) in
      let exact = sorted.(idx) in
      let approx = Sim.Hist.quantile h q in
      (* log-bucket relative error bound: <= 1/32 plus rounding *)
      approx >= exact && float_of_int approx <= (float_of_int exact *. 1.04) +. 1.0)

(* mirror of the histogram's log bucketing: exact below 64, then 32
   sub-buckets per power of two *)
let bucket_of v =
  if v < 64 then v
  else begin
    let k = ref 0 and x = ref v in
    while !x > 1 do
      incr k;
      x := !x lsr 1
    done;
    64 + ((!k - 6) * 32) + ((v lsr (!k - 5)) - 32)
  end

let test_hist_quantile_within_one_bucket =
  QCheck.Test.make ~name:"hist quantile within one bucket of sort-based reference"
    ~count:300
    QCheck.(
      pair (list_of_size Gen.(int_range 1 400) (int_bound 5_000_000)) (float_range 0.01 1.0))
    (fun (values, q) ->
      let h = Hist.create () in
      List.iter (Hist.add h) values;
      (* the old sort-based implementation: q-th order statistic *)
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let idx = min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)) in
      let exact = sorted.(idx) in
      let approx = Hist.quantile h q in
      abs (bucket_of approx - bucket_of exact) <= 1)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 1; 2; 3 ];
  List.iter (Hist.add b) [ 100; 200 ];
  let m = Hist.merge a b in
  check_int "merged count" 5 (Hist.count m);
  check_int "merged min" 1 (Hist.min_value m);
  check_int "merged max" 200 (Hist.max_value m);
  (* originals untouched *)
  check_int "a count" 3 (Hist.count a)

let test_hist_clear () =
  let h = Hist.create () in
  Hist.add h 42;
  Hist.clear h;
  check_int "cleared" 0 (Hist.count h);
  check_int "cleared max" 0 (Hist.max_value h)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create "" in
  let _ = Heap.push h ~time:30 "c" in
  let _ = Heap.push h ~time:10 "a" in
  let _ = Heap.push h ~time:20 "b" in
  Alcotest.(check (option (pair int string))) "pop a" (Some (10, "a")) (Heap.pop h);
  Alcotest.(check (option (pair int string))) "pop b" (Some (20, "b")) (Heap.pop h);
  Alcotest.(check (option (pair int string))) "pop c" (Some (30, "c")) (Heap.pop h);
  Alcotest.(check (option (pair int string))) "empty" None (Heap.pop h)

let test_heap_fifo_ties () =
  let h = Heap.create "" in
  let _ = Heap.push h ~time:5 "first" in
  let _ = Heap.push h ~time:5 "second" in
  let _ = Heap.push h ~time:5 "third" in
  Alcotest.(check (option (pair int string))) "tie 1" (Some (5, "first")) (Heap.pop h);
  Alcotest.(check (option (pair int string))) "tie 2" (Some (5, "second")) (Heap.pop h)

let test_heap_cancel () =
  let h = Heap.create "" in
  let _ = Heap.push h ~time:1 "keep1" in
  let dead = Heap.push h ~time:2 "dead" in
  let _ = Heap.push h ~time:3 "keep2" in
  check_int "size 3" 3 (Heap.size h);
  Heap.cancel h dead;
  check_int "size 2 after cancel" 2 (Heap.size h);
  check_bool "no longer armed" false (Heap.armed dead);
  Alcotest.(check (option (pair int string))) "keep1" (Some (1, "keep1")) (Heap.pop h);
  Alcotest.(check (option (pair int string))) "skips dead" (Some (3, "keep2")) (Heap.pop h)

let test_heap_sorted_property =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:300
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iter (fun t -> ignore (Sim.Heap.push h ~time:t ())) times;
      let rec drain last =
        match Sim.Heap.pop h with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain min_int)

let test_heap_cancel_property =
  QCheck.Test.make ~name:"cancelled entries never pop" ~count:200
    QCheck.(list (pair (int_bound 1000) bool))
    (fun entries ->
      let h = Sim.Heap.create (0, false) in
      let handles = List.map (fun (t, cancel) -> (Sim.Heap.push h ~time:t (t, cancel), cancel)) entries in
      List.iter (fun (hd, cancel) -> if cancel then Sim.Heap.cancel h hd) handles;
      let rec drain acc =
        match Sim.Heap.pop h with None -> acc | Some (_, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      List.for_all (fun (_, cancelled) -> not cancelled) popped
      && List.length popped = List.length (List.filter (fun (_, c) -> not c) entries))

(* ------------------------------------------------------------------ *)
(* Engine *)

(* [reset] returns an engine to [create]'s state: a reset engine that
   had posted work, near and far-future timers and a used RNG behaves as
   a fresh one — nothing stale runs or stays reachable, the clock
   restarts at 0, the RNG replays its seed's stream and timer sequence
   numbers restart *)
let post_watched e seen =
  let v = ref 0 in
  Weak.set seen 0 (Some v);
  Engine.post e (fun () -> incr v)

let test_engine_reset_is_fresh () =
  let e = Engine.create ~seed:7L () in
  let seen = Weak.create 1 in
  let stale = ref 0 in
  ignore (Engine.schedule e ~delay:(Time.ms 5) (fun () -> incr stale));
  ignore (Engine.schedule e ~delay:(Time.ms 3_600_000) (fun () -> incr stale));
  Engine.run ~until:(Time.ms 1) e;
  for _ = 1 to 20 do
    Engine.post e (fun () -> incr stale)
  done;
  post_watched e seen;
  ignore (Rng.bits64 (Engine.rng e));
  Engine.reset e;
  Gc.full_major ();
  check_bool "posted work unreachable" true (Weak.get seen 0 = None);
  check_int "clock restarts" 0 (Engine.now e);
  check_int "nothing pending" 0 (Engine.pending e);
  check_bool "rng replays the seed" true
    (Rng.bits64 (Engine.rng e) = Rng.bits64 (Rng.create 7L));
  let fired_at = ref (-1) in
  ignore (Engine.schedule e ~delay:(Time.ms 2) (fun () -> fired_at := Engine.now e));
  Engine.run e;
  check_int "no stale work ran" 0 !stale;
  check_int "new timer fired on the restarted clock" (Time.ms 2) !fired_at;
  let w = Heap.create "" in
  ignore (Heap.push w ~time:3 "a");
  Heap.clear w;
  check_int "timer seq restarts" 0 (Heap.seq (Heap.push w ~time:1 "b"))

let test_engine_post_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.post e (fun () -> log := 1 :: !log);
  Engine.post e (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (List.rev !log);
  check_int "time unchanged" 0 (Engine.now e)

let test_engine_schedule_advances_clock () =
  let e = Engine.create () in
  let fired_at = ref (-1) in
  ignore (Engine.schedule e ~delay:(Time.ms 5) (fun () -> fired_at := Engine.now e));
  Engine.run e;
  check_int "fired at 5ms" (Time.ms 5) !fired_at;
  check_int "clock at 5ms" (Time.ms 5) (Engine.now e)

let test_engine_ordering_mixed () =
  let e = Engine.create () in
  let log = ref [] in
  let push tag () = log := tag :: !log in
  ignore (Engine.schedule e ~delay:20 (push "t20"));
  ignore (Engine.schedule e ~delay:10 (fun () ->
      push "t10" ();
      Engine.post e (push "posted-at-10")));
  Engine.post e (push "now");
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "now"; "t10"; "posted-at-10"; "t20" ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  check_bool "not fired" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:10 (fun () -> fired := 10 :: !fired));
  ignore (Engine.schedule e ~delay:30 (fun () -> fired := 30 :: !fired));
  Engine.run ~until:20 e;
  Alcotest.(check (list int)) "only t10" [ 10 ] (List.rev !fired);
  check_int "clock clamped to until" 20 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "rest runs" [ 10; 30 ] (List.rev !fired)

let test_engine_periodic_chain () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 100 then ignore (Engine.schedule e ~delay:1 tick)
  in
  ignore (Engine.schedule e ~delay:1 tick);
  Engine.run e;
  check_int "100 ticks" 100 !count;
  check_int "clock 100us" 100 (Engine.now e)

(* the ready ring wraps before it grows: posts after a partial drain land
   behind the head, and growth must unroll them in FIFO order *)
let test_engine_ring_fifo_growth () =
  let e = Engine.create () in
  let log = ref [] in
  let post i = Engine.post e (fun () -> log := i :: !log) in
  for i = 0 to 9 do
    post i
  done;
  for _ = 1 to 6 do
    ignore (Engine.step e)
  done;
  (* 4 left at the ring's tail; 60 more wrap it and then grow it twice *)
  for i = 10 to 69 do
    post i
  done;
  (* a thunk that posts keeps its successor behind everything queued *)
  Engine.post e (fun () -> post 71);
  post 70;
  Engine.run e;
  Alcotest.(check (list int)) "fifo across wrap and growth" (List.init 72 Fun.id) (List.rev !log)

let test_engine_chooser_adopts_ring () =
  let e = Engine.create () in
  let log = ref [] in
  let post i = Engine.post e (fun () -> log := i :: !log) in
  for i = 0 to 19 do
    post i
  done;
  for _ = 1 to 5 do
    ignore (Engine.step e)
  done;
  for i = 20 to 39 do
    post i
  done;
  let sizes = ref [] in
  Engine.set_chooser e (fun tags n ->
      sizes := n :: !sizes;
      for i = 0 to n - 1 do
        if tags.(i) <> Engine.Anon then Alcotest.fail "adopted work is tagged Anon"
      done;
      0);
  check_int "pending adopted" 35 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "adopted in posting order" (List.init 40 Fun.id) (List.rev !log);
  Alcotest.(check (list int)) "choice sets shrink by one" (List.init 34 (fun i -> 35 - i))
    (List.rev !sizes)

(* a coroutine's work carries its node's tag ([Anon] for no node), one
   tag value shared by every coroutine of the node *)
let test_engine_coroutine_tags () =
  let e = Engine.create () in
  let sets = ref [] in
  Engine.set_chooser e (fun tags n ->
      sets := (Array.sub tags 0 n, n > 1 && tags.(0) == tags.(1)) :: !sets;
      0);
  let s = Depfast.Sched.create e in
  Depfast.Sched.spawn s ~node:3 ignore;
  Depfast.Sched.spawn s ~node:3 ignore;
  Depfast.Sched.spawn s ignore;
  Engine.run e;
  match List.rev !sets with
  | (tags, shared) :: _ ->
    check_bool "node 3, node 3, no node" true
      (tags = [| Engine.On_node 3; Engine.On_node 3; Engine.Anon |]);
    check_bool "one tag per node" true shared
  | [] -> Alcotest.fail "no choice point"

(* a timer armed before [reset] went with it: cancelling the stale handle
   is a no-op, and the new run's timer that drew the same seq keeps its
   tag *)
let test_engine_cancel_after_reset () =
  let e = Engine.create () in
  let sets = ref [] in
  Engine.set_chooser e (fun tags n ->
      sets := Array.sub tags 0 n :: !sets;
      0);
  let stale = Engine.schedule_tag e ~delay:10 (Engine.On_node 1) ignore in
  Engine.reset e;
  let fired = ref 0 in
  ignore (Engine.schedule_tag e ~delay:10 (Engine.On_node 2) (fun () -> incr fired));
  ignore (Engine.schedule_tag e ~delay:10 (Engine.On_node 3) (fun () -> incr fired));
  Engine.cancel e stale;
  Engine.run e;
  check_int "both new timers fired" 2 !fired;
  match List.rev !sets with
  | tags :: _ ->
    check_bool "the tied timers keep their tags" true
      (tags = [| Engine.On_node 2; Engine.On_node 3 |])
  | [] -> Alcotest.fail "no choice point"

(* ------------------------------------------------------------------ *)
(* Allocation pins: exact minor words of the engine's hot containers *)

let words_per n f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* the measurement itself boxes a float or two: allow 0.01 word per op *)
let check_words what expected got =
  if Float.abs (got -. expected) > 0.01 then Alcotest.failf "%s: %.2f words, expected %.2f" what got expected

let noop () = ()

let test_alloc_post_step () =
  let e = Engine.create () in
  (* size the ring first: its growth is a one-off, not per post *)
  Engine.post e noop;
  ignore (Engine.step e);
  check_words "post + step" 0.0
    (words_per 10_000 (fun _ ->
         Engine.post e noop;
         ignore (Engine.step e)))

let test_alloc_heap () =
  let w = Heap.create noop in
  let push i = ignore (Heap.push w ~time:(Heap.pos w + (i * 37 mod 5_000)) noop) in
  (* grow the array past the minor heap's largest block first: later
     doublings go straight to the major heap, so a push's minor words
     are its entry alone *)
  for i = 1 to 300 do
    push i
  done;
  (* exactly one timer entry: four fields (time, seq, value, idx) and a
     header *)
  check_words "push" 5.0 (words_per 10_000 push);
  let acc = ref 0 in
  check_words "next_time_or" 0.0
    (words_per 1_000 (fun _ -> acc := !acc + Heap.next_time_or w ~default:0));
  check_words "take_or" 0.0
    (words_per 10_300 (fun _ -> if Heap.take_or w ~default:noop == noop then incr acc));
  check_bool "drained" true (Heap.is_empty w);
  check_words "next_time_or, empty" 0.0
    (words_per 1_000 (fun _ -> acc := !acc + Heap.next_time_or w ~default:0))

let test_alloc_rng () =
  let r = Rng.create 3L in
  let acc = ref 0 in
  check_words "Rng.int" 0.0 (words_per 10_000 (fun i -> acc := !acc + Rng.int r i));
  check_words "Rng.bits53" 0.0 (words_per 10_000 (fun _ -> acc := !acc + Rng.bits53 r));
  check_words "Rng.bool" 0.0 (words_per 10_000 (fun _ -> if Rng.bool r then incr acc))

(* a network latency draw: [Net.send]'s default shape *)
let test_alloc_dist_span () =
  let r = Rng.create 3L in
  let d = Dist.Shifted (120.0, Dist.Exponential 30.0) in
  let acc = ref 0 in
  check_words "Dist.sample_span" 0.0 (words_per 10_000 (fun _ -> acc := !acc + Dist.sample_span r d))

(* re-arming the timer an owner keeps, as a station server, a network
   link and a coroutine's timeout do, allocates nothing: not the entry,
   nor, in explore mode, the tag's slot in the engine's bookkeeping *)
let test_alloc_rearm () =
  let rearm_words e tag =
    let h = ref Engine.unarmed in
    let rearm_step i =
      h := Engine.reschedule e !h ~delay:(i mod 300) tag noop;
      ignore (Engine.step e)
    in
    (* the first arm allocates the entry and grows the engine's arrays *)
    rearm_step 0;
    words_per 10_000 rearm_step
  in
  check_words "reschedule a fired timer + step" 0.0 (rearm_words (Engine.create ()) Engine.Anon);
  let e = Engine.create () in
  Engine.set_chooser e (fun _ _ -> 0);
  check_words "the same in explore mode, tagged" 0.0 (rearm_words e (Engine.On_node 0));
  let e = Engine.create () in
  let h = ref (Engine.schedule e ~delay:10 noop) in
  check_words "reschedule a cancelled timer" 0.0
    (words_per 10_000 (fun i ->
         Engine.cancel e !h;
         h := Engine.reschedule e !h ~delay:(1 + (i mod 5_000)) Engine.Anon noop));
  check_words "reschedule a cancelled timer an hour ahead" 0.0
    (words_per 10_000 (fun i ->
         Engine.cancel e !h;
         h := Engine.reschedule e !h ~delay:(Time.sec 3_600 + i) Engine.Anon noop))

(* A cancelled entry lets go of its payload at once: a dead 5 s timeout
   no longer keeps its thunk's closure (and all that closure holds)
   alive. *)
let[@inline never] push_payload w weak =
  let payload = Bytes.create 64 in
  Weak.set weak 0 (Some payload);
  Heap.push w ~time:(Time.sec 5) payload

let test_heap_cancel_frees_payload () =
  let filler = Bytes.empty in
  let w = Heap.create filler in
  let weak = Weak.create 1 in
  let h = push_payload w weak in
  ignore (Heap.push w ~time:(Time.sec 5) (Bytes.create 1));
  Heap.cancel w h;
  Gc.full_major ();
  check_bool "cancelled payload unreachable" true (Weak.get weak 0 = None);
  check_bool "the handle reads the filler" true (Heap.value h == filler);
  check_int "the live sibling stays" 1 (Heap.size w)

(* an owned entry re-arms in place after it fired: the same handle, a
   new seq, the new payload, and it pops again at its new time *)
let test_heap_rearm_after_fire () =
  let w = Heap.create "" in
  let h = Heap.push w ~time:10 "a" in
  check_bool "popped" true (Heap.take_handle w == h);
  let h' = Heap.rearm w h ~time:25 "b" in
  check_bool "same entry" true (h' == h);
  check_int "next seq" 1 (Heap.seq h);
  check_int "armed" 1 (Heap.size w);
  check_bool "pops again" true (Heap.pop w = Some (25, "b"));
  check_bool "then empty" true (Heap.is_empty w)

(* a cancel removes its entry at once: dropped by its holder, it is
   garbage while its live sibling, due at the same time, stays. Re-armed, a
   cancelled entry takes the next seq, so it pops after a sibling it was
   pushed before. *)
let[@inline never] push_dropped w weak =
  let h = Heap.push w ~time:(Time.sec 2) "dropped" in
  Weak.set weak 0 (Some h);
  Heap.cancel w h

let test_heap_rearm_after_cancel () =
  let w = Heap.create "" in
  let weak = Weak.create 1 in
  let h = Heap.push w ~time:(Time.sec 2) "owned" in
  push_dropped w weak;
  ignore (Heap.push w ~time:(Time.sec 2) "sibling");
  Heap.cancel w h;
  Gc.full_major ();
  check_bool "cancelled entry removed at once" true (Weak.get weak 0 = None);
  check_int "only the sibling left" 1 (Heap.size w);
  check_bool "same entry" true (Heap.rearm w h ~time:(Time.sec 2) "owned again" == h);
  check_bool "sibling first" true (Heap.pop w = Some (Time.sec 2, "sibling"));
  check_bool "then the re-armed entry" true (Heap.pop w = Some (Time.sec 2, "owned again"));
  check_bool "then empty" true (Heap.is_empty w)

(* [clear] leaves every entry in no heap, so a handle taken before it
   re-arms in place, under the restarted seqs *)
let test_heap_rearm_after_clear () =
  let w = Heap.create "" in
  let h = Heap.push w ~time:30 "a" in
  ignore (Heap.push w ~time:30 "b");
  Heap.clear w;
  check_bool "same entry" true (Heap.rearm w h ~time:5 "c" == h);
  check_int "seqs restart" 0 (Heap.seq h);
  check_bool "pops" true (Heap.pop w = Some (5, "c"));
  check_bool "then empty" true (Heap.is_empty w)

let suite =
  [
    ( "sim.time",
      [
        Alcotest.test_case "units and arithmetic" `Quick test_time_units;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
      ] );
    ( "sim.dist",
      [
        Alcotest.test_case "sample means" `Quick test_dist_means;
        Alcotest.test_case "samples nonnegative" `Quick test_dist_nonnegative;
        Alcotest.test_case "draws match the recursive definition" `Quick
          test_dist_draws_match_reference;
        Alcotest.test_case "analytic means" `Quick test_dist_analytic_mean;
        Alcotest.test_case "zipfian skew" `Quick test_zipfian_skew;
        Alcotest.test_case "zipfian ~uniform at theta~0" `Quick test_zipfian_uniform_theta0;
      ] );
    ( "sim.hist",
      [
        Alcotest.test_case "basic stats" `Quick test_hist_basic;
        Alcotest.test_case "small values exact" `Quick test_hist_small_exact;
        Alcotest.test_case "merge" `Quick test_hist_merge;
        Alcotest.test_case "clear" `Quick test_hist_clear;
        QCheck_alcotest.to_alcotest test_hist_quantile_vs_sorted;
        QCheck_alcotest.to_alcotest test_hist_quantile_within_one_bucket;
      ] );
    ( "sim.timer",
      [
        Alcotest.test_case "cancel frees the payload" `Quick test_heap_cancel_frees_payload;
        Alcotest.test_case "re-arm after fire" `Quick test_heap_rearm_after_fire;
        Alcotest.test_case "re-arm after cancel unlinks at once" `Quick
          test_heap_rearm_after_cancel;
        Alcotest.test_case "re-arm after clear" `Quick test_heap_rearm_after_clear;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "FIFO tie-break" `Quick test_heap_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_heap_cancel;
        QCheck_alcotest.to_alcotest test_heap_sorted_property;
        QCheck_alcotest.to_alcotest test_heap_cancel_property;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "post order" `Quick test_engine_post_order;
        Alcotest.test_case "schedule advances clock" `Quick test_engine_schedule_advances_clock;
        Alcotest.test_case "mixed ordering" `Quick test_engine_ordering_mixed;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "run ~until" `Quick test_engine_until;
        Alcotest.test_case "periodic chain" `Quick test_engine_periodic_chain;
        Alcotest.test_case "ready ring FIFO across growth" `Quick test_engine_ring_fifo_growth;
        Alcotest.test_case "set_chooser adopts posted work in order" `Quick
          test_engine_chooser_adopts_ring;
        Alcotest.test_case "coroutines carry their node's tag" `Quick test_engine_coroutine_tags;
        Alcotest.test_case "cancel after reset keeps new tags" `Quick
          test_engine_cancel_after_reset;
        Alcotest.test_case "reset is fresh" `Quick test_engine_reset_is_fresh;
      ] );
    ( "sim.alloc",
      [
        Alcotest.test_case "engine post + step" `Quick test_alloc_post_step;
        Alcotest.test_case "wheel push, next_time_or, take_or" `Quick test_alloc_heap;
        Alcotest.test_case "rng draws" `Quick test_alloc_rng;
        Alcotest.test_case "dist span draw" `Quick test_alloc_dist_span;
        Alcotest.test_case "re-arming an owned timer allocates nothing" `Quick test_alloc_rearm;
      ] );
  ]
