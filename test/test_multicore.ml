(* Tests for the multicore layer under the parallel explorer: the
   Chase–Lev work-stealing deque (sequential contracts plus real
   steal/push/pop races across domains), the domain-pool plumbing, and
   exact histogram merging. *)

module W = Sim.Wsq
module P = Sim.Dpool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* deque, owner side: LIFO pops, growth past the initial capacity *)

let test_wsq_lifo () =
  let q = W.create () in
  check_bool "fresh deque empty" true (W.is_empty q);
  check_int "fresh deque size" 0 (W.size q);
  for i = 1 to 5 do
    W.push q i
  done;
  check_int "five queued" 5 (W.size q);
  Alcotest.(check (list (option int)))
    "owner pops newest first, then None"
    [ Some 5; Some 4; Some 3; Some 2; Some 1; None ]
    (List.init 6 (fun _ -> W.pop q));
  check_bool "drained" true (W.is_empty q)

let test_wsq_growth () =
  let q = W.create ~capacity:2 () in
  let n = 1000 in
  for i = 1 to n do
    W.push q i
  done;
  check_int "all retained across grows" n (W.size q);
  let sum = ref 0 in
  let rec drain () =
    match W.pop q with
    | Some v ->
      sum := !sum + v;
      drain ()
    | None -> ()
  in
  drain ();
  check_int "every element intact" (n * (n + 1) / 2) !sum

(* thief side, no concurrency: steals take the oldest element *)

let test_wsq_steal_fifo () =
  let q = W.create () in
  List.iter (W.push q) [ 1; 2; 3 ];
  (match W.steal q with
  | W.Stolen v -> check_int "thief takes the oldest" 1 v
  | W.Empty | W.Retry -> Alcotest.fail "steal from a 3-element deque failed");
  Alcotest.(check (option int)) "owner still pops the newest" (Some 3) (W.pop q);
  (match W.steal q with
  | W.Stolen v -> check_int "next oldest" 2 v
  | W.Empty | W.Retry -> Alcotest.fail "steal from a 1-element deque failed");
  check_bool "steal on empty reports Empty" true
    (match W.steal q with W.Empty -> true | W.Stolen _ | W.Retry -> false)

(* the race the structure exists for: one owner pushing and popping,
   several thieves stealing concurrently on real domains. Every element
   must be consumed exactly once — no loss, no duplication. *)

let test_wsq_domain_race () =
  let q = W.create ~capacity:4 () in
  let n = 20_000 in
  let thieves = 3 in
  let stolen = Array.init thieves (fun _ -> Atomic.make 0) in
  let done_ = Atomic.make false in
  let thief k =
    Domain.spawn (fun () ->
        let rec loop () =
          match W.steal q with
          | W.Stolen v ->
            Atomic.set stolen.(k) (Atomic.get stolen.(k) + v);
            loop ()
          | W.Retry -> loop ()
          | W.Empty -> if not (Atomic.get done_) then loop ()
        in
        loop ())
  in
  let ds = List.init thieves thief in
  (* owner: interleave pushes with occasional pops, then drain *)
  let popped = ref 0 in
  for i = 1 to n do
    W.push q i;
    if i mod 7 = 0 then
      match W.pop q with Some v -> popped := !popped + v | None -> ()
  done;
  let rec drain () =
    match W.pop q with
    | Some v ->
      popped := !popped + v;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set done_ true;
  List.iter Domain.join ds;
  (* the owner can race one final steal: drain anything left behind *)
  drain ();
  let total =
    Array.fold_left (fun a c -> a + Atomic.get c) !popped stolen
  in
  check_int "every element consumed exactly once" (n * (n + 1) / 2) total;
  check_bool "deque empty at quiescence" true (W.is_empty q)

(* ------------------------------------------------------------------ *)
(* domain pool: scatter/join indexing, error propagation, the gate *)

let test_scatter_indexes () =
  let r = P.scatter ~jobs:4 (fun i -> i * i) in
  Alcotest.(check (list int)) "slice i computes f i" [ 0; 1; 4; 9 ] (Array.to_list r)

let test_scatter_reraises () =
  check_bool "lowest-indexed slice exception wins" true
    (try
       ignore (P.scatter ~jobs:3 (fun i -> if i >= 1 then failwith (string_of_int i)));
       false
     with Failure s -> s = "1")

let test_recommended_jobs_env () =
  check_bool "at least one worker" true (P.recommended_jobs () >= 1);
  check_bool "cap respected" true (P.recommended_jobs ~cap:2 () <= 2)

let test_gate_epoch () =
  let g = P.Gate.create () in
  let e = P.Gate.epoch g in
  P.Gate.wake_all g;
  check_bool "wake bumps the epoch" true (P.Gate.epoch g > e);
  (* a wake between reading the epoch and awaiting it must not block *)
  P.Gate.await g ~seen:e

(* ------------------------------------------------------------------ *)
(* satellite: Hist.merge is exact — merging histograms equals recording
   the concatenated samples (bucket-wise, so every quantile agrees) *)

let hist_of samples =
  let h = Sim.Hist.create () in
  List.iter (Sim.Hist.add h) samples;
  h

let test_hist_merge_concat =
  QCheck.Test.make ~count:200 ~name:"Hist.merge == concat"
    QCheck.(pair (list (int_bound 2_000_000)) (list (int_bound 2_000_000)))
    (fun (xs, ys) ->
      let merged = Sim.Hist.merge (hist_of xs) (hist_of ys) in
      let concat = hist_of (xs @ ys) in
      Sim.Hist.count merged = Sim.Hist.count concat
      && Sim.Hist.min_value merged = Sim.Hist.min_value concat
      && Sim.Hist.max_value merged = Sim.Hist.max_value concat
      && Sim.Hist.mean merged = Sim.Hist.mean concat
      && List.for_all
           (fun q -> Sim.Hist.quantile merged q = Sim.Hist.quantile concat q)
           [ 0.0; 0.5; 0.9; 0.99; 1.0 ])

let suite =
  [
    ( "multicore.wsq",
      [
        Alcotest.test_case "owner LIFO" `Quick test_wsq_lifo;
        Alcotest.test_case "growth past capacity" `Quick test_wsq_growth;
        Alcotest.test_case "thief FIFO" `Quick test_wsq_steal_fifo;
        Alcotest.test_case "owner vs thieves on domains" `Quick test_wsq_domain_race;
      ] );
    ( "multicore.dpool",
      [
        Alcotest.test_case "scatter indexes slices" `Quick test_scatter_indexes;
        Alcotest.test_case "scatter re-raises" `Quick test_scatter_reraises;
        Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs_env;
        Alcotest.test_case "gate epoch" `Quick test_gate_epoch;
      ] );
    ("multicore.merge", [ QCheck_alcotest.to_alcotest test_hist_merge_concat ]);
  ]
