(* Timing, GC accounting, robust statistics and the result line shared by
   every workload of the benchmark. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Each timed section starts from a compacted heap, so it measures its own
   work and not the GC debt left by whatever ran before it in the process. *)
let fresh_heap () = Gc.compact ()

type gc_delta = { minor_words : float; promoted_words : float; major_collections : int }

let with_gc f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0
let max_list = List.fold_left max neg_infinity

(* Run [f] at least [min_reps] times, then keep going while another
   repetition (estimated from the last one) still fits in [seconds]. *)
let repeat ~seconds ~min_reps f =
  let t0 = now () in
  let rec go acc k last =
    if k >= min_reps && now () -. t0 +. last > seconds then List.rev acc
    else
      let r, dt = time f in
      go (r :: acc) (k + 1) dt
  in
  go [] 0 0.0

(* One fixed-count measurement of a unit operation: [batch n] performs the
   operation [n] times; the result is the median over [k] batches of the
   per-operation wall time, and the exact minor-heap words per operation of
   the last batch. *)
let unit_cost ?(k = 5) ~n batch =
  batch n;
  let samples =
    List.init k (fun _ ->
        let ((), dt), gc = with_gc (fun () -> time (fun () -> batch n)) in
        (dt /. float_of_int n, gc.minor_words /. float_of_int n))
  in
  (median (List.map fst samples), snd (List.nth samples (k - 1)))

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-44s %16.6g %s\n" m.name m.value m.unit_) ms;
  flush stdout

(* The last line of standard output: one JSON object, every value with all
   its digits. A value that is not finite is a failed measurement. *)
let result_line ~correct ~attempted ~failed ms =
  let finite = List.for_all (fun m -> Float.is_finite m.value) ms in
  let field m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "-1")
      m.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite) attempted failed
    (String.concat ", " (List.map field ms));
  correct && finite
