(* Additional property-based suites over core data structures and
   substrate invariants. *)

(* ------------------------------------------------------------------ *)
(* The majority commit rule: [Server.select_kth] against the sort-based
   rule the baselines used (the k-th element of a descending sort), over
   match arrays with duplicates, one slot per voter (n = 1..7), for every
   k and for the majority position the rule reads *)

let test_select_kth_matches_sort =
  QCheck.Test.make ~name:"select_kth = k-th of a descending sort" ~count:500
    QCheck.(list_of_size Gen.(int_range 1 7) (int_bound 6))
    (fun matches ->
      let n = List.length matches in
      let sorted = List.sort (fun a b -> compare b a) matches in
      let kth k = Raft.Server.select_kth (Array.of_list matches) 0 (n - 1) k in
      List.for_all (fun k -> kth k = List.nth sorted k) (List.init n Fun.id)
      && kth (Raft.Config.majority n - 1) = List.nth sorted (Raft.Config.majority n - 1))

(* ------------------------------------------------------------------ *)
(* Rlog: a random sequence of appends/truncations behaves like a list *)

let rlog_ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (frequency [ (4, return `Append); (1, map (fun i -> `Truncate i) (int_range 1 220)) ]))

let test_rlog_model =
  QCheck.Test.make ~name:"rlog behaves like its list model" ~count:300
    (QCheck.make rlog_ops_gen) (fun ops ->
      let log = Raft.Rlog.create () in
      let model = ref [] (* newest first; entry i at position len-i *) in
      let term_of i = (i mod 5) + 1 in
      List.iter
        (fun op ->
          match op with
          | `Append ->
            let index = Raft.Rlog.last_index log + 1 in
            let e : Raft.Types.entry =
              { term = term_of index; index; cmd = Raft.Types.Nop; client_id = -1; seq = 0 }
            in
            Raft.Rlog.append log e;
            model := e :: !model
          | `Truncate i ->
            Raft.Rlog.truncate_from log i;
            model := List.filter (fun (e : Raft.Types.entry) -> e.index < i) !model)
        ops;
      let len = List.length !model in
      Raft.Rlog.last_index log = len
      && Raft.Rlog.last_term log = (match !model with [] -> 0 | e :: _ -> e.term)
      && List.for_all
           (fun (e : Raft.Types.entry) -> Raft.Rlog.get log e.index = Some e)
           !model
      && Raft.Rlog.get log (len + 1) = None
      && Raft.Rlog.term_at log 0 = Some 0)

let test_rlog_slice_coherent =
  QCheck.Test.make ~name:"rlog slice = contiguous window" ~count:200
    QCheck.(triple (int_range 1 100) (int_range 1 120) (int_range 1 50))
    (fun (len, from, max_n) ->
      let log = Raft.Rlog.create () in
      for i = 1 to len do
        Raft.Rlog.append log
          { term = 1; index = i; cmd = Raft.Types.Nop; client_id = -1; seq = 0 }
      done;
      let s = Raft.Rlog.slice_array log ~from ~max:max_n in
      if from > len then s = [||]
      else
        Array.length s = min max_n (len - from + 1)
        && Array.for_all Fun.id
             (Array.mapi (fun k (e : Raft.Types.entry) -> e.index = from + k) s))

(* a view over any window materializes to exactly the copying slice *)
let test_rlog_view_matches_slice =
  QCheck.Test.make ~name:"rlog view materializes to the slice" ~count:200
    QCheck.(triple (int_range 1 100) (int_range 1 120) (int_range 1 50))
    (fun (len, from, max_n) ->
      let log = Raft.Rlog.create () in
      for i = 1 to len do
        Raft.Rlog.append log
          { term = 1; index = i; cmd = Raft.Types.Nop; client_id = -1; seq = 0 }
      done;
      let v = Raft.Rlog.view log ~from ~max:max_n in
      Raft.Rlog.View.valid v
      &&
      match Raft.Types.view_materialize v with
      | Some a -> a = Raft.Rlog.slice_array log ~from ~max:max_n
      | None -> false)

(* ------------------------------------------------------------------ *)
(* KV sessions: replaying any prefix of a command stream never double-
   applies *)

let test_kv_exactly_once =
  QCheck.Test.make ~name:"kv dedup: random replays apply exactly once" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_bound 3) (int_bound 9)))
    (fun cmds ->
      (* build an entry stream with client retries: each (client, key) cmd
         appears, sometimes twice, with the same seq *)
      let kv = Raft.Kv.create () in
      let reference = Hashtbl.create 16 in
      let seqs = Hashtbl.create 4 in
      let index = ref 0 in
      List.iter
        (fun (client, key) ->
          let seq = 1 + Option.value ~default:0 (Hashtbl.find_opt seqs client) in
          Hashtbl.replace seqs client seq;
          let e : Raft.Types.entry =
            {
              term = 1;
              index = (incr index; !index);
              cmd = Raft.Types.Put { key = string_of_int key; value = Printf.sprintf "%d-%d" client seq };
              client_id = client;
              seq;
            }
          in
          ignore (Raft.Kv.apply kv e);
          (* duplicate delivery of the same command *)
          ignore (Raft.Kv.apply kv e);
          Hashtbl.replace reference (string_of_int key) (Printf.sprintf "%d-%d" client seq))
        cmds;
      Raft.Kv.applied_count kv = List.length cmds
      && Hashtbl.fold
           (fun k v acc -> acc && Raft.Kv.get kv k = Some v)
           reference true)

(* the store is an open-addressing table grown 2x from 16 slots: through
   every growth it binds, counts and digests exactly as a Stdlib
   [Hashtbl] model does, and misses what was never put *)
let test_kv_store_matches_hashtbl =
  QCheck.Test.make ~name:"kv store == Hashtbl model across growth" ~count:100
    QCheck.(pair (int_range 1 3_000) (list_of_size Gen.(int_range 1 2_000) (pair (int_bound 2_999) small_nat)))
    (fun (range, puts) ->
      let kv = Raft.Kv.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let key = "k" ^ string_of_int (k mod range) and value = string_of_int v in
          let cmd = Raft.Types.Put { key; value } in
          ignore (Raft.Kv.apply_cmd kv ~cmd ~client_id:(-1) ~seq:0);
          Hashtbl.replace model key value)
        puts;
      let all_found = ref true in
      for k = 0 to range do
        let key = "k" ^ string_of_int k in
        if Raft.Kv.get kv key <> Hashtbl.find_opt model key then all_found := false
      done;
      !all_found
      && Raft.Kv.size kv = Hashtbl.length model
      && Raft.Kv.digest kv = Hashtbl.fold (fun k v acc -> acc lxor Hashtbl.hash (k, v)) model 0)

(* the leader's group commit seals the same command stream into
   multi-command Batch entries (singletons stay plain entries); applying
   the batched log must be indistinguishable from applying the commands
   one entry each — including dedup of retried sequence numbers *)

let batched_apply_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 120)
         (triple (int_range 0 3)
            (frequency [ (4, return `Put); (1, return `Get); (1, return `Dup) ])
            (pair (int_range 0 9) (int_range 0 99))))
      (list_size (int_range 1 60) (int_range 1 8)))

let test_batched_apply_equiv =
  QCheck.Test.make ~name:"kv: batched apply == sequential apply" ~count:200
    (QCheck.make batched_apply_gen) (fun (raw, cuts) ->
      (* per-client increasing seqs; `Dup re-sends the previous seq *)
      let seqs = Array.make 4 0 in
      let cmds =
        List.map
          (fun (c, kind, (k, v)) ->
            let key = Printf.sprintf "k%d" k in
            let cmd =
              match kind with
              | `Get -> Raft.Types.Get { key }
              | `Put | `Dup -> Raft.Types.Put { key; value = string_of_int v }
            in
            let seq =
              match kind with
              | `Dup -> max 1 seqs.(c)
              | `Put | `Get ->
                seqs.(c) <- seqs.(c) + 1;
                seqs.(c)
            in
            { Raft.Types.b_cmd = cmd; b_client = c; b_seq = seq })
          raw
      in
      (* reference: one apply_cmd per command, in order *)
      let kv_seq = Raft.Kv.create () in
      List.iter
        (fun (b : Raft.Types.bcmd) ->
          ignore (Raft.Kv.apply_cmd kv_seq ~cmd:b.b_cmd ~client_id:b.b_client ~seq:b.b_seq))
        cmds;
      (* batched: cut the same stream into entries at the random sizes *)
      let kv_b = Raft.Kv.create () in
      let rec take k l =
        match (k, l) with
        | k, x :: r when k > 0 ->
          let a, b = take (k - 1) r in
          (x :: a, b)
        | _, l -> ([], l)
      in
      let rec seal idx cmds cuts =
        match cmds with
        | [] -> ()
        | _ ->
          let n, rest_cuts =
            match cuts with [] -> (3, []) | c :: r -> (c, r)
          in
          let batch, rest = take n cmds in
          let e : Raft.Types.entry =
            match batch with
            | [ (b : Raft.Types.bcmd) ] ->
              { term = 1; index = idx; cmd = b.b_cmd; client_id = b.b_client; seq = b.b_seq }
            | _ ->
              {
                term = 1;
                index = idx;
                cmd = Raft.Types.Batch (Array.of_list batch);
                client_id = -1;
                seq = 0;
              }
          in
          ignore (Raft.Kv.apply kv_b e);
          seal (idx + 1) rest rest_cuts
      in
      seal 1 cmds cuts;
      Raft.Kv.digest kv_seq = Raft.Kv.digest kv_b
      && Raft.Kv.applied_count kv_seq = Raft.Kv.applied_count kv_b
      && Raft.Kv.size kv_seq = Raft.Kv.size kv_b)

(* ------------------------------------------------------------------ *)
(* Network: FIFO per directed link under random latencies *)

let test_net_fifo_property =
  QCheck.Test.make ~name:"net: per-link delivery is FIFO under random latency" ~count:100
    QCheck.(pair (int_range 1 60) (int_range 1 1000))
    (fun (n_msgs, mean_latency) ->
      let engine = Sim.Engine.create ~seed:(Int64.of_int (n_msgs + mean_latency)) () in
      let sched = Depfast.Sched.create engine in
      let net =
        Cluster.Net.create sched
          ~latency:(Sim.Dist.Exponential (float_of_int mean_latency))
          ~filler:0 ()
      in
      let a = Cluster.Node.create sched ~id:0 ~name:"a" () in
      let b = Cluster.Node.create sched ~id:1 ~name:"b" () in
      let got = ref [] in
      Cluster.Net.register net a ~handler:(fun ~src:_ _ -> ());
      Cluster.Net.register net b ~handler:(fun ~src:_ m -> got := m :: !got);
      for i = 1 to n_msgs do
        Cluster.Net.send net ~units:0 ~src:0 ~dst:1 i
      done;
      Sim.Engine.run engine;
      List.rev !got = List.init n_msgs (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* Event algebra: And/Or/Quorum consistency under random fire subsets *)

let test_event_algebra =
  QCheck.Test.make ~name:"And = Count n, Or = Count 1 on random fire subsets" ~count:300
    QCheck.(pair (int_range 1 10) (list (int_bound 9)))
    (fun (n, fired) ->
      let mk () = List.init n (fun i -> Depfast.Event.rpc_completion ~peer:i ()) in
      let attach parent children =
        List.iter (fun c -> Depfast.Event.add parent ~child:c) children;
        children
      in
      let and_parent = Depfast.Event.and_ () in
      let and_kids = attach and_parent (mk ()) in
      let or_parent = Depfast.Event.or_ () in
      let or_kids = attach or_parent (mk ()) in
      let cnt_parent = Depfast.Event.quorum (Depfast.Event.Count n) in
      let cnt_kids = attach cnt_parent (mk ()) in
      let distinct = List.sort_uniq compare (List.filter (fun i -> i < n) fired) in
      List.iter
        (fun i ->
          Depfast.Event.fire (List.nth and_kids i);
          Depfast.Event.fire (List.nth or_kids i);
          Depfast.Event.fire (List.nth cnt_kids i))
        distinct;
      let k = List.length distinct in
      Depfast.Event.is_ready and_parent = (k = n)
      && Depfast.Event.is_ready cnt_parent = (k = n)
      && Depfast.Event.is_ready or_parent = (k >= 1))

(* ------------------------------------------------------------------ *)
(* Station: completions never exceed server parallelism and conserve jobs *)

let test_station_conservation =
  QCheck.Test.make ~name:"station conserves jobs across random loads" ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 1 80) (int_range 1 2000)))
    (fun (servers, works) ->
      let engine = Sim.Engine.create () in
      let sched = Depfast.Sched.create engine in
      let st = Cluster.Station.create sched ~servers ~name:"s" () in
      let done_count = ref 0 in
      List.iter
        (fun w ->
          Depfast.Event.on_fire (Cluster.Station.submit st ~work:w ()) (fun () ->
              incr done_count))
        works;
      Sim.Engine.run engine;
      !done_count = List.length works
      && Cluster.Station.completed_jobs st = List.length works
      && Cluster.Station.queue_length st = 0
      && Cluster.Station.busy_servers st = 0)

(* ------------------------------------------------------------------ *)
(* Hist: quantiles are monotone in q *)

let test_hist_quantile_monotone =
  QCheck.Test.make ~name:"hist quantiles monotone" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 300) (int_bound 5_000_000))
    (fun values ->
      let h = Sim.Hist.create () in
      List.iter (Sim.Hist.add h) values;
      let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let vals = List.map (Sim.Hist.quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals && Sim.Hist.quantile h 1.0 = Sim.Hist.max_value h)

(* ------------------------------------------------------------------ *)
(* Timer queue against a model: any random sequence of pushes, re-arms,
   cancels, removals and clears on [Sim.Heap] behaves as a list of
   [(time, seq, id)] kept sorted, with seqs drawn from a counter that
   restarts at each clear. Every removal entry point ([pop], [take_or],
   [take_handle]) pops the model's least entry, [next_time_or] reads its
   time, and after every step [size] is the model's length and each
   handle is [armed] exactly while its current id is in the model.
   Deltas mix same-instant bursts, near and mid-range deadlines and
   ones over half an hour ahead. Cancels hit live, fired and already
   cancelled handles alike; [Rearm] and [Cancel_owned] work a small pool
   of owned handles the way the engine's timer owners do, and a re-arm
   keeps the owner's entry whether it is pending, fired, cancelled or
   cleared. *)

let rearm_delay_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int_range 0 40);
        (2, int_range 0 5_000);
        (1, map (fun d -> d + (1 lsl 31)) (int_range 0 1000));
      ])

let timer_ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 400)
      (frequency
         [
           (3, return (`Push 0));
           (6, map (fun d -> `Push d) (int_range 0 40));
           (3, map (fun d -> `Push d) (int_range 0 5_000));
           (1, map (fun d -> `Push (d + (1 lsl 31))) (int_range 0 1000));
           (2, map2 (fun k d -> `Burst (k, d)) (int_range 2 6) (int_range 0 40));
           (2, return `Pop);
           (1, return `Take);
           (1, return `Take_handle);
           (1, return `Next);
           (1, return `Clear);
           (2, map (fun k -> `Cancel k) (int_range 0 1_000_000));
           (2, map (fun k -> `Cancel_recent k) (int_range 0 5));
           (3, map2 (fun k d -> `Rearm (k, d)) (int_range 0 3) rearm_delay_gen);
           (1, map (fun k -> `Cancel_owned k) (int_range 0 3));
         ]))

let test_timer_queue_model =
  QCheck.Test.make ~name:"timer queue pop order = sorted-list model" ~count:300
    (QCheck.make timer_ops_gen) (fun ops ->
      let module H = Sim.Heap in
      let h = H.create (-1) in
      (* the model: pending [(time, seq, id)], kept sorted *)
      let model = ref [] and next_seq = ref 0 and id = ref 0 in
      (* every handle with the id of its latest arm: pushed ones, then the
         owned pool's *)
      let handles = ref [] in
      let owned = Array.make 4 (H.no_handle, 0) in
      let ok = ref true in
      let expect b = ok := !ok && b in
      let add time hd =
        incr id;
        let seq = !next_seq in
        incr next_seq;
        model := List.merge compare !model [ (time, seq, !id) ];
        expect (H.seq hd = seq && H.value hd = !id && H.time hd = time)
      in
      let forget hd i =
        let was = List.exists (fun (_, _, j) -> j = i) !model in
        model := List.filter (fun (_, _, j) -> j <> i) !model;
        H.cancel h hd;
        expect ((not (H.armed hd)) && ((not was) || H.value hd = -1))
      in
      let push d =
        let time = H.pos h + d in
        let hd = H.push h ~time (!id + 1) in
        add time hd;
        handles := (hd, !id) :: !handles
      in
      let rearm i d =
        let hd, old = owned.(i) in
        model := List.filter (fun (_, _, j) -> j <> old) !model;
        let time = H.pos h + d in
        let hd' = H.rearm h hd ~time (!id + 1) in
        expect (hd == H.no_handle || hd' == hd);
        add time hd';
        owned.(i) <- (hd', !id)
      in
      (* remove the model's least entry and check [got] is it *)
      let pops got =
        match !model with
        | [] -> expect (got = None)
        | (time, _, i) :: rest ->
          model := rest;
          expect (got = Some (time, i) && H.pos h = time)
      in
      let consistent () =
        let live i = List.exists (fun (_, _, j) -> j = i) !model in
        expect (H.size h = List.length !model && H.is_empty h = (!model = []));
        List.iter (fun (hd, i) -> expect (H.armed hd = live i)) !handles;
        Array.iter (fun (hd, i) -> expect (H.armed hd = live i)) owned
      in
      List.iter
        (fun op ->
          (match op with
          | `Push d -> push d
          | `Burst (k, d) ->
            for _ = 1 to k do
              push d
            done
          | `Pop -> pops (H.pop h)
          | `Take ->
            let v = H.take_or h ~default:(-1) in
            pops (if v < 0 then None else Some (H.pos h, v))
          | `Take_handle ->
            let hd = H.take_handle h in
            if hd == H.no_handle then pops None
            else begin
              (match !model with (_, seq, _) :: _ -> expect (H.seq hd = seq) | [] -> ());
              pops (Some (H.time hd, H.value hd))
            end
          | `Next ->
            expect
              (H.next_time_or h ~default:(-1)
              = match !model with (time, _, _) :: _ -> time | [] -> -1)
          | `Clear ->
            H.clear h;
            model := [];
            next_seq := 0;
            expect (H.pos h = 0)
          | `Cancel k ->
            let n = List.length !handles in
            if n > 0 then
              let hd, i = List.nth !handles (k mod n) in
              forget hd i
          | `Cancel_recent k -> (
            match List.nth_opt !handles k with Some (hd, i) -> forget hd i | None -> ())
          | `Rearm (i, d) -> rearm i d
          | `Cancel_owned i ->
            let hd, j = owned.(i) in
            forget hd j);
          consistent ())
        ops;
      while !model <> [] do
        pops (H.pop h)
      done;
      !ok && H.pop h = None)

(* Cancel-heavy timers, as the engine's client and handler timeouts are:
   thousands armed 1-5 s ahead, most cancelled long before they are due,
   then pops interleaved with more pushes, cancels and re-arms of a pool
   of owned entries (a coroutine's timeout, re-armed at every timed wait).
   Pop order must stay that of a set of [(time, seq, id)]. And a cancel
   releases at once: with every handle still held and before any pop or
   peek, no cancelled entry's payload is reachable. *)
module Timer_model = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

let test_timer_queue_cancel_heavy =
  QCheck.Test.make ~name:"cancel-heavy timer queue matches a sorted model, and releases"
    ~count:20
    QCheck.(pair (int_range 2_000 4_000) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let module H = Sim.Heap in
      let module M = Timer_model in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let h = H.create (ref (-1)) in
      let cap = 2 * n in
      let hs = Array.make cap H.no_handle and owned = Array.make 8 H.no_handle in
      let model = ref M.empty and next_seq = ref 0 in
      let pushed = ref 0 and id = ref (cap + 1) in
      let ok = ref true in
      let expect b = ok := !ok && b in
      (* record an arm of [hd] in the model and check its seq *)
      let add hd time v =
        expect (H.seq hd = !next_seq && H.time hd = time);
        model := M.add (time, !next_seq, v) !model;
        incr next_seq
      in
      (* drop [hd]'s entry from the model; a no-op once it fired or was
         cancelled, as {!H.cancel} is *)
      let forget hd =
        if H.armed hd then model := M.remove (H.time hd, H.seq hd, !(H.value hd)) !model
      in
      let push () =
        let i = !pushed in
        let time = H.pos h + Sim.Rng.int_in rng 1_000_000 5_000_000 in
        hs.(i) <- H.push h ~time (ref (i + 1));
        add hs.(i) time (i + 1);
        incr pushed
      in
      let cancel i =
        forget hs.(i);
        H.cancel h hs.(i)
      in
      for _ = 1 to n do
        push ()
      done;
      let order = Array.init n Fun.id in
      Sim.Rng.shuffle rng order;
      let dead = Weak.create n in
      Array.iteri
        (fun k i ->
          if k < n * 9 / 10 then begin
            Weak.set dead i (Some (H.value hs.(i)));
            cancel i
          end)
        order;
      Gc.full_major ();
      let released = ref 0 in
      for i = 0 to n - 1 do
        if (not (H.armed hs.(i))) && not (Weak.check dead i) then incr released
      done;
      expect (!released = n * 9 / 10 && H.size h = M.cardinal !model);
      let rearm i =
        let time = H.pos h + Sim.Rng.int_in rng 1_000_000 5_000_000 in
        incr id;
        forget owned.(i);
        owned.(i) <- H.rearm h owned.(i) ~time (ref !id);
        add owned.(i) time !id
      in
      let pop () =
        match (H.pop h, M.min_elt_opt !model) with
        | None, None -> false
        | Some (time, v), Some ((t, _, i) as least) ->
          model := M.remove least !model;
          expect (time = t && !v = i);
          true
        | _ ->
          expect false;
          false
      in
      for _ = 1 to n do
        match Sim.Rng.int rng 5 with
        | 0 when !pushed < cap -> push ()
        | 1 -> cancel (Sim.Rng.int rng !pushed)
        | 2 -> rearm (Sim.Rng.int rng (Array.length owned))
        | _ -> ignore (pop ())
      done;
      while pop () do
        ()
      done;
      !ok && H.is_empty h && M.is_empty !model)

(* ------------------------------------------------------------------ *)
(* Trace ring: growth by doubling, capacity bound, drop-oldest policy,
   dropped counter, clear *)

module Tr = Depfast.Trace

let record ?(ev = Depfast.Event.signal ()) tr cid =
  Tr.record tr ~cid ~node:(cid mod 3) ~coroutine:"c" ev ~quorum_k:1 ~quorum_n:1
    ~t_start:cid ~t_end:(cid + 1) (if cid mod 2 = 0 then Tr.Ready else Tr.Timed_out)

let cids tr = List.map (fun (w : Tr.wait) -> w.cid) (Tr.waits tr)
let range a b = List.init (b - a + 1) (fun i -> a + i)

let test_trace_ring_drop_oldest () =
  let tr = Tr.create ~capacity:4 ~enabled:true () in
  for i = 1 to 6 do
    record tr i
  done;
  Alcotest.(check int) "bounded by capacity" 4 (Tr.wait_count tr);
  Alcotest.(check int) "two overwritten" 2 (Tr.dropped tr);
  Alcotest.(check (list int)) "oldest dropped, order kept" [ 3; 4; 5; 6 ] (cids tr);
  Tr.clear tr;
  Alcotest.(check int) "clear empties" 0 (Tr.wait_count tr);
  Alcotest.(check int) "clear resets dropped" 0 (Tr.dropped tr);
  record tr 9;
  Alcotest.(check (list int)) "records again after clear" [ 9 ] (cids tr)

let test_trace_ring_disabled () =
  let tr = Tr.create ~capacity:4 () in
  record tr 1;
  Alcotest.(check int) "disabled records nothing" 0 (Tr.wait_count tr);
  Tr.enable tr;
  record tr 2;
  Alcotest.(check int) "enabled records" 1 (Tr.wait_count tr)

(* every record, at every step, across each doubling of the columns and
   past capacity, reads back whole through the index accessors *)
let test_trace_ring_growth () =
  List.iter
    (fun cap ->
      let tr = Tr.create ~capacity:cap ~enabled:true () in
      for n = 1 to (3 * cap) + 5 do
        record tr n;
        let lo = max 1 (n - cap + 1) in
        let what = Printf.sprintf "capacity %d after %d" cap n in
        Alcotest.(check (list int)) what (range lo n) (cids tr);
        Alcotest.(check int) (what ^ ": dropped") (lo - 1) (Tr.dropped tr);
        for i = 0 to Tr.wait_count tr - 1 do
          let c = lo + i in
          let ok =
            Tr.cid tr i = c
            && Tr.node tr i = c mod 3
            && Tr.coroutine tr i = "c"
            && Tr.quorum_k tr i = 1
            && Tr.quorum_n tr i = 1
            && Tr.t_start tr i = c
            && Tr.t_end tr i = c + 1
            && Tr.outcome tr i = if c mod 2 = 0 then Tr.Ready else Tr.Timed_out
          in
          if not ok then Alcotest.failf "%s: record %d garbled" what i
        done
      done)
    [ 5; 31; 32; 33; 100; 200 ]

let test_trace_ring_capacity_one () =
  let tr = Tr.create ~capacity:1 ~enabled:true () in
  record tr 1;
  Alcotest.(check (list int)) "one record" [ 1 ] (cids tr);
  record tr 2;
  record tr 3;
  Alcotest.(check (list int)) "only the newest" [ 3 ] (cids tr);
  Alcotest.(check int) "two overwritten" 2 (Tr.dropped tr)

let test_trace_ring_clear_after_growth () =
  let tr = Tr.create ~capacity:100 ~enabled:true () in
  for i = 1 to 250 do
    record tr i
  done;
  Tr.clear tr;
  for i = 1 to 80 do
    record tr i
  done;
  Alcotest.(check (list int)) "in order after clear" (range 1 80) (cids tr);
  Alcotest.(check int) "nothing dropped yet" 0 (Tr.dropped tr);
  for i = 81 to 110 do
    record tr i
  done;
  Alcotest.(check (list int)) "drop-oldest again at capacity" (range 11 110) (cids tr);
  Alcotest.(check int) "ten overwritten" 10 (Tr.dropped tr)

(* the event is built here, so after the call the weak slot and the trace
   hold the only references *)
let record_weak tr weak =
  let ev = Depfast.Event.signal ~label:"weak" () in
  Weak.set weak 0 (Some ev);
  record ~ev tr 1

let test_trace_clear_releases_events () =
  let tr = Tr.create ~enabled:true () in
  let weak = Weak.create 1 in
  record_weak tr weak;
  Gc.full_major ();
  Alcotest.(check bool) "the trace keeps its event alive" true (Weak.check weak 0);
  Tr.clear tr;
  Gc.full_major ();
  Alcotest.(check bool) "clear released the event" false (Weak.check weak 0);
  Alcotest.(check int) "trace still usable" 0 (Tr.wait_count tr)

let suite =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest test_select_kth_matches_sort;
        QCheck_alcotest.to_alcotest test_rlog_model;
        QCheck_alcotest.to_alcotest test_rlog_slice_coherent;
        QCheck_alcotest.to_alcotest test_rlog_view_matches_slice;
        QCheck_alcotest.to_alcotest test_kv_exactly_once;
        QCheck_alcotest.to_alcotest test_kv_store_matches_hashtbl;
        QCheck_alcotest.to_alcotest test_batched_apply_equiv;
        QCheck_alcotest.to_alcotest test_net_fifo_property;
        QCheck_alcotest.to_alcotest test_event_algebra;
        QCheck_alcotest.to_alcotest test_station_conservation;
        QCheck_alcotest.to_alcotest test_hist_quantile_monotone;
        QCheck_alcotest.to_alcotest test_timer_queue_model;
        QCheck_alcotest.to_alcotest test_timer_queue_cancel_heavy;
      ] );
    ( "trace.ring",
      [
        Alcotest.test_case "drop-oldest policy" `Quick test_trace_ring_drop_oldest;
        Alcotest.test_case "disabled is a no-op" `Quick test_trace_ring_disabled;
        Alcotest.test_case "growth across doublings" `Quick test_trace_ring_growth;
        Alcotest.test_case "capacity 1" `Quick test_trace_ring_capacity_one;
        Alcotest.test_case "clear after growth" `Quick test_trace_ring_clear_after_growth;
        Alcotest.test_case "clear releases events" `Quick test_trace_clear_releases_events;
      ] );
  ]
