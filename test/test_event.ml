(* Unit and property tests for the DepFast event abstraction. *)

open Depfast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_signal_lifecycle () =
  let ev = Event.signal ~label:"x" () in
  check_bool "starts pending" false (Event.is_ready ev);
  let fired = ref 0 in
  Event.on_fire ev (fun () -> incr fired);
  Event.fire ev;
  check_bool "ready" true (Event.is_ready ev);
  check_int "observer ran" 1 !fired;
  Event.fire ev;
  check_int "idempotent" 1 !fired;
  (* late observer runs immediately *)
  Event.on_fire ev (fun () -> incr fired);
  check_int "late observer" 2 !fired

let test_quorum_majority () =
  let q = Event.quorum ~label:"maj" Event.Majority in
  let children = List.init 5 (fun i -> Event.rpc_completion ~peer:i ()) in
  List.iter (fun c -> Event.add q ~child:c) children;
  check_int "required 3 of 5" 3 (Event.required q);
  Event.fire (List.nth children 0);
  Event.fire (List.nth children 1);
  check_bool "2/5 pending" false (Event.is_ready q);
  Event.fire (List.nth children 4);
  check_bool "3/5 ready" true (Event.is_ready q);
  check_int "ready children" 3 (Event.ready_children q)

let test_quorum_count () =
  let q = Event.quorum (Event.Count 2) in
  let a = Event.signal () and b = Event.signal () and c = Event.signal () in
  List.iter (fun ch -> Event.add q ~child:ch) [ a; b; c ];
  Event.fire a;
  check_bool "1/3" false (Event.is_ready q);
  Event.fire c;
  check_bool "2/3" true (Event.is_ready q)

let test_and_or () =
  let a = Event.signal () and b = Event.signal () in
  let all = Event.and_ () in
  Event.add all ~child:a;
  Event.add all ~child:b;
  let any = Event.or_ () in
  let c = Event.signal () and d = Event.signal () in
  Event.add any ~child:c;
  Event.add any ~child:d;
  Event.fire a;
  check_bool "and 1/2" false (Event.is_ready all);
  Event.fire b;
  check_bool "and 2/2" true (Event.is_ready all);
  Event.fire d;
  check_bool "or fires on any" true (Event.is_ready any)

let test_add_already_ready_child () =
  let a = Event.signal () in
  Event.fire a;
  let q = Event.quorum (Event.Count 1) in
  Event.add q ~child:a;
  check_bool "immediately ready" true (Event.is_ready q)

let test_nesting_or_of_quorums () =
  (* the fast-path / slow-path idiom from §3.2 *)
  let oks = List.init 3 (fun i -> Event.rpc_completion ~peer:i ()) in
  let rejects = List.init 3 (fun i -> Event.rpc_completion ~peer:i ()) in
  let fast_ok = Event.quorum ~label:"fast_ok" (Event.Count 2) in
  let fast_reject = Event.quorum ~label:"fast_reject" (Event.Count 2) in
  List.iter (fun c -> Event.add fast_ok ~child:c) oks;
  List.iter (fun c -> Event.add fast_reject ~child:c) rejects;
  let fastpath = Event.or_ ~label:"fastpath" () in
  Event.add fastpath ~child:fast_ok;
  Event.add fastpath ~child:fast_reject;
  Event.fire (List.nth rejects 0);
  Event.fire (List.nth oks 1);
  check_bool "no side decided" false (Event.is_ready fastpath);
  Event.fire (List.nth rejects 2);
  check_bool "reject quorum" true (Event.is_ready fast_reject);
  check_bool "or propagates" true (Event.is_ready fastpath);
  check_bool "ok side still pending" false (Event.is_ready fast_ok)

let test_nesting_and_of_quorums () =
  (* 2PC-style: all shards must reach their own majority *)
  let shard n =
    let q = Event.quorum (Event.Count 2) in
    let evs = List.init 3 (fun i -> Event.rpc_completion ~peer:((n * 3) + i) ()) in
    List.iter (fun c -> Event.add q ~child:c) evs;
    (q, evs)
  in
  let q1, evs1 = shard 0 and q2, evs2 = shard 1 in
  let all = Event.and_ () in
  Event.add all ~child:q1;
  Event.add all ~child:q2;
  List.iteri (fun i e -> if i < 2 then Event.fire e) evs1;
  check_bool "one shard done" false (Event.is_ready all);
  List.iteri (fun i e -> if i >= 1 then Event.fire e) evs2;
  check_bool "both shards done" true (Event.is_ready all)

let test_children_order () =
  (* the array-backed children must preserve attachment order through
     growth (initial capacity is 6) *)
  let q = Event.quorum (Event.Count 15) in
  let cs = List.init 15 (fun i -> Event.rpc_completion ~peer:i ()) in
  List.iter (fun c -> Event.add q ~child:c) cs;
  check_int "count" 15 (Event.child_count q);
  Alcotest.(check (list int))
    "attachment order" (List.map Event.id cs)
    (List.map Event.id (Event.children q));
  let seen = ref [] in
  Event.iter_children q (fun c -> seen := Event.id c :: !seen);
  Alcotest.(check (list int))
    "iter_children order" (List.map Event.id cs)
    (List.rev !seen)

let test_observer_order () =
  (* observers run in registration order even though they are stored
     reversed *)
  let ev = Event.signal () in
  let ran = ref [] in
  List.iter (fun i -> Event.on_fire ev (fun () -> ran := i :: !ran)) [ 1; 2; 3 ];
  Event.fire ev;
  Alcotest.(check (list int)) "registration order" [ 1; 2; 3 ] (List.rev !ran);
  let ab = Event.signal () in
  let ran = ref [] in
  List.iter (fun i -> Event.on_abandon ab (fun () -> ran := i :: !ran)) [ 1; 2; 3 ];
  Event.abandon ab;
  Alcotest.(check (list int)) "abandon observer order" [ 1; 2; 3 ] (List.rev !ran)

let test_fire_compound_rejected () =
  let q = Event.quorum Event.Any in
  Alcotest.check_raises "fire compound" (Invalid_argument "Event.fire: compound events fire via children")
    (fun () -> Event.fire q)

let test_add_to_basic_rejected () =
  let s = Event.signal () in
  Alcotest.check_raises "add to basic" (Invalid_argument "Event.add: not a compound event")
    (fun () -> Event.add s ~child:(Event.signal ()))

let test_abandon () =
  let q = Event.quorum (Event.Count 2) in
  let slow = Event.rpc_completion ~peer:9 () in
  let abandoned = ref false in
  Event.on_abandon slow (fun () -> abandoned := true);
  Event.add q ~child:slow;
  Event.abandon q;
  check_bool "child abandoned" true !abandoned;
  check_bool "abandoned flag" true (Event.is_abandoned slow);
  (* firing an abandoned basic event is a no-op *)
  Event.fire slow;
  check_bool "no late fire" false (Event.is_ready slow)

(* a basic event settles once: its fire and its abandon exclude each
   other, in either order and through a compound's abandon too, so an
   observer of each may settle the same counter without a flag (the Raft
   sender's in-flight window relies on it) *)
let test_fire_abandon_exclusive () =
  let settle_both ev =
    let inflight = ref 1 in
    Event.on_fire ev (fun () -> decr inflight);
    Event.on_abandon ev (fun () -> decr inflight);
    inflight
  in
  let fired = Event.rpc_completion ~peer:1 () in
  let n = settle_both fired in
  Event.fire fired;
  Event.abandon fired;
  check_int "fire, then abandon: settled once" 0 !n;
  check_bool "a fired event is not abandoned" false (Event.is_abandoned fired);
  let dropped = Event.rpc_completion ~peer:1 () in
  let n = settle_both dropped in
  Event.abandon dropped;
  Event.fire dropped;
  check_int "abandon, then fire: settled once" 0 !n;
  check_bool "an abandoned event does not fire" false (Event.is_ready dropped);
  (* a still-pending quorum given up on: its fired child stays fired *)
  let q = Event.quorum (Event.Count 2) in
  let quick = Event.rpc_completion ~peer:1 () and slow = Event.rpc_completion ~peer:2 () in
  let nq = settle_both quick and ns = settle_both slow in
  Event.add q ~child:quick;
  Event.add q ~child:slow;
  Event.fire quick;
  Event.abandon q;
  Event.fire slow;
  check_int "the fired child settled once" 0 !nq;
  check_bool "the straggler was abandoned" true (Event.is_abandoned slow);
  check_int "and settled once" 0 !ns

(* a dropped fire observer does not run, whether it held the waiter slot
   or sat in the list behind it; the rest run in registration order *)
let test_drop_waiter () =
  let ev = Event.signal () in
  let ran = ref [] in
  let obs = Array.init 4 (fun i () -> ran := i :: !ran) in
  Array.iter (Event.on_fire ev) obs;
  Event.drop_waiter ev obs.(0);
  Event.drop_waiter ev obs.(2);
  Event.drop_waiter ev ignore;
  Event.fire ev;
  Alcotest.(check (list int)) "the others, in order" [ 1; 3 ] (List.rev !ran)

let test_abandon_shared_child_kept () =
  (* a child still awaited by another live parent must not be abandoned *)
  let shared = Event.rpc_completion ~peer:1 () in
  let q1 = Event.quorum Event.Any and q2 = Event.quorum Event.Any in
  Event.add q1 ~child:shared;
  Event.add q2 ~child:shared;
  Event.abandon q1;
  check_bool "shared child survives" false (Event.is_abandoned shared);
  Event.fire shared;
  check_bool "q2 still fires" true (Event.is_ready q2)

let test_peers () =
  let q = Event.quorum Event.Majority in
  List.iter (fun p -> Event.add q ~child:(Event.rpc_completion ~peer:p ())) [ 3; 1; 3; 2 ];
  Alcotest.(check (list int)) "deduplicated in order" [ 3; 1; 2 ] (Event.peers q)

(* peers of a nested compound whose children repeat peers: first
   occurrence wins, in DFS pre-order over the children *)
let test_peers_nested_order () =
  let rpc p = Event.rpc_completion ~peer:p () in
  let group ev ps = List.iter (fun p -> Event.add ev ~child:(rpc p)) ps in
  let a = Event.and_ () in
  group a [ 3; 1; 3 ];
  let inner = Event.quorum Event.Majority in
  group inner [ 2; 3 ];
  let o = Event.or_ () in
  Event.add o ~child:inner;
  group o [ 0; 1; 4 ];
  let root = Event.quorum Event.Majority in
  Event.add root ~child:a;
  Event.add root ~child:(rpc 1);
  Event.add root ~child:o;
  Event.add root ~child:(rpc 5);
  Event.add root ~child:(rpc 0);
  Alcotest.(check (list int)) "DFS pre-order, first occurrence" [ 3; 1; 2; 0; 4; 5 ]
    (Event.peers root);
  Alcotest.(check (list int)) "a child's own order" [ 2; 3; 0; 1; 4 ] (Event.peers o)

(* a basic event's peer lives in its key: it is never cached, never
   changes when the event joins compounds, and must fit in 20 bits *)
let test_peers_basic () =
  let rpc = Event.rpc_completion ~peer:4 () and disk = Event.disk_completion ~node:2 () in
  let top = (1 lsl 20) - 2 in
  let far = Event.rpc_completion ~peer:top () in
  Alcotest.(check (list int)) "rpc peer" [ 4 ] (Event.peers rpc);
  Alcotest.(check (list int)) "disk node" [ 2 ] (Event.peers disk);
  Alcotest.(check (list int)) "signal: none" [] (Event.peers (Event.signal ()));
  Alcotest.(check (list int)) "timer: none" [] (Event.peers (Event.timer_kind ()));
  Alcotest.(check (list int)) "the largest peer" [ top ] (Event.peers far);
  check_bool "kinds kept" true
    (Event.kind rpc = Event.Rpc && Event.kind disk = Event.Disk && Event.kind far = Event.Rpc);
  check_int "ids are consecutive" (Event.id rpc + 1) (Event.id disk);
  check_int "the id survives a large peer" (Event.id disk + 1) (Event.id far);
  Alcotest.check_raises "peer too large" (Invalid_argument "Event: peer node out of range")
    (fun () -> ignore (Event.rpc_completion ~peer:(top + 1) ()));
  Alcotest.check_raises "negative peer" (Invalid_argument "Event: peer node out of range")
    (fun () -> ignore (Event.disk_completion ~node:(-2) ()));
  let q = Event.quorum Event.Majority in
  Event.add q ~child:rpc;
  Event.add q ~child:disk;
  Alcotest.(check (list int)) "quorum peers" [ 4; 2 ] (Event.peers q);
  Alcotest.(check (list int)) "a child's peers unchanged" [ 4 ] (Event.peers rpc);
  Alcotest.(check (list int)) "stallers" [ 4 ] (Event.stallers rpc);
  Alcotest.(check (list int)) "majority of two: both stall" [ 4; 2 ] (Event.stallers q)

(* a compound's cached peers follow children added below it later *)
let test_peers_nested_late_child () =
  let rpc p = Event.rpc_completion ~peer:p () in
  let inner = Event.quorum Event.Majority in
  Event.add inner ~child:(rpc 1);
  let outer = Event.and_ () in
  Event.add outer ~child:inner;
  Event.add outer ~child:(rpc 0);
  Alcotest.(check (list int)) "before" [ 1; 0 ] (Event.peers outer);
  Alcotest.(check (list int)) "inner alone" [ 1 ] (Event.peers inner);
  Event.add inner ~child:(rpc 2);
  Event.add inner ~child:(rpc 3);
  Alcotest.(check (list int)) "after, through the inner quorum" [ 1; 2; 3; 0 ] (Event.peers outer);
  Alcotest.(check (list int)) "the inner quorum tolerates one" [ 0 ] (Event.stallers outer)

(* a basic event is 9 words: the header and 8 fields, what only
   compounds use being shared by every basic event *)
let test_signal_words () =
  let n = 1_000 in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Event.signal ()))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if Float.abs (words -. 9.0) > 0.01 then Alcotest.failf "Event.signal: %.2f words, expected 9" words

let test_stallers_basic () =
  let rpc = Event.rpc_completion ~peer:7 () in
  Alcotest.(check (list int)) "basic rpc staller" [ 7 ] (Event.stallers rpc);
  let t = Event.timer_kind () in
  Alcotest.(check (list int)) "timer no staller" [] (Event.stallers t)

let test_stallers_quorum () =
  let q = Event.quorum Event.Majority in
  List.iter (fun p -> Event.add q ~child:(Event.rpc_completion ~peer:p ())) [ 0; 1; 2 ];
  Alcotest.(check (list int)) "majority quorum tolerant" [] (Event.stallers q);
  let all = Event.and_ () in
  List.iter (fun p -> Event.add all ~child:(Event.rpc_completion ~peer:p ())) [ 0; 1; 2 ];
  Alcotest.(check (list int)) "and-event: everyone stalls" [ 0; 1; 2 ] (Event.stallers all)

let test_stallers_nested () =
  (* And of two majority quorums: no single node can stall *)
  let shard ps =
    let q = Event.quorum Event.Majority in
    List.iter (fun p -> Event.add q ~child:(Event.rpc_completion ~peer:p ())) ps;
    q
  in
  let all = Event.and_ () in
  Event.add all ~child:(shard [ 0; 1; 2 ]);
  Event.add all ~child:(shard [ 3; 4; 5 ]);
  Alcotest.(check (list int)) "2pc over quorums tolerant" [] (Event.stallers all);
  (* but if one shard is a single replica, that replica stalls the And *)
  let all2 = Event.and_ () in
  Event.add all2 ~child:(shard [ 0; 1; 2 ]);
  Event.add all2 ~child:(Event.rpc_completion ~peer:9 ());
  Alcotest.(check (list int)) "single-replica shard stalls" [ 9 ] (Event.stallers all2)

let test_stallers_abandoned_child () =
  (* an abandoned child of a pending quorum can never fire, so the live
     quorum shrinks: 2-of-3 over {0,1,2} with child 2 abandoned is really
     2-of-2 over {0,1} — each survivor now stalls it *)
  let q = Event.quorum Event.Majority in
  let cs =
    List.map
      (fun p ->
        let c = Event.rpc_completion ~peer:p () in
        Event.add q ~child:c;
        c)
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "tolerant before abandon" [] (Event.stallers q);
  Event.abandon (List.nth cs 2);
  Alcotest.(check (list int)) "abandoned child shrinks quorum" [ 0; 1 ] (Event.stallers q);
  (* abandonment under an already-fired parent must not re-redden it *)
  let q2 = Event.quorum Event.Majority in
  let cs2 =
    List.map
      (fun p ->
        let c = Event.rpc_completion ~peer:p () in
        Event.add q2 ~child:c;
        c)
      [ 0; 1; 2 ]
  in
  Event.fire (List.nth cs2 0);
  Event.fire (List.nth cs2 1);
  Alcotest.(check bool) "quorum fired" true (Event.is_ready q2);
  Event.abandon (List.nth cs2 2);
  Alcotest.(check (list int)) "straggler discard stays green" [] (Event.stallers q2)

let test_stallers_abandoned_nested () =
  (* nested: and_ of two majority quorums is tolerant, but abandoning one
     child of the first shard turns that shard (and hence the and_) red
     for the shard's two survivors *)
  let shard ps =
    let q = Event.quorum Event.Majority in
    let cs =
      List.map
        (fun p ->
          let c = Event.rpc_completion ~peer:p () in
          Event.add q ~child:c;
          c)
        ps
    in
    (q, cs)
  in
  let q1, cs1 = shard [ 0; 1; 2 ] in
  let q2, _ = shard [ 3; 4; 5 ] in
  let all = Event.and_ () in
  Event.add all ~child:q1;
  Event.add all ~child:q2;
  Alcotest.(check (list int)) "tolerant before abandon" [] (Event.stallers all);
  Event.abandon (List.nth cs1 2);
  Alcotest.(check (list int)) "inner abandon reddens the and_" [ 0; 1 ] (Event.stallers all);
  Alcotest.(check (list int)) "abandoned shard red on its own" [ 0; 1 ] (Event.stallers q1);
  Alcotest.(check (list int)) "other shard unaffected" [] (Event.stallers q2)

(* property: a random quorum event fires exactly when >= k children fired,
   regardless of fire order *)
let test_quorum_fire_order_property =
  QCheck.Test.make ~name:"quorum fires iff k children fired (any order)" ~count:300
    QCheck.(pair (int_range 1 12) (int_range 1 12))
    (fun (n, k) ->
      let n = max n k in
      let q = Depfast.Event.quorum (Depfast.Event.Count k) in
      let children = Array.init n (fun i -> Depfast.Event.rpc_completion ~peer:i ()) in
      Array.iter (fun c -> Depfast.Event.add q ~child:c) children;
      let order = Array.init n Fun.id in
      let rng = Sim.Rng.create (Int64.of_int ((n * 100) + k)) in
      Sim.Rng.shuffle rng order;
      let ok = ref true in
      Array.iteri
        (fun fired_count idx ->
          (* before firing child #(fired_count+1): ready iff fired_count >= k *)
          if Depfast.Event.is_ready q <> (fired_count >= k) then ok := false;
          Depfast.Event.fire children.(idx))
        order;
      !ok && Depfast.Event.is_ready q = (n >= k))

(* property: nested events' stallers computation matches brute force over
   single-node stalls *)
let test_stallers_brute_force =
  let gen_tree =
    QCheck.Gen.(
      sized_size (int_range 1 3) @@ fix (fun self depth ->
          if depth = 0 then map (fun p -> `Leaf p) (int_range 0 5)
          else
            frequency
              [
                (1, map (fun p -> `Leaf p) (int_range 0 5));
                ( 2,
                  map2
                    (fun k kids -> `Node (k, kids))
                    (int_range 1 4)
                    (list_size (int_range 1 4) (self (depth - 1))) );
              ]))
  in
  let rec build = function
    | `Leaf p -> Depfast.Event.rpc_completion ~peer:p ()
    | `Node (k, kids) ->
      let n = List.length kids in
      let q = Depfast.Event.quorum (Depfast.Event.Count (min k n)) in
      List.iter (fun kid -> Depfast.Event.add q ~child:(build kid)) kids;
      q
  in
  (* does the tree fire if all leaves except those with peer [p] fire? *)
  let rec fires_without p = function
    | `Leaf q -> q <> p
    | `Node (k, kids) ->
      let n = List.length kids in
      let k = min k n in
      let alive = List.length (List.filter (fires_without p) kids) in
      alive >= k
  in
  QCheck.Test.make ~name:"stallers = brute-force single-node stall set" ~count:300
    (QCheck.make gen_tree) (fun tree ->
      let ev = build tree in
      let expected =
        List.filter (fun p -> not (fires_without p tree)) [ 0; 1; 2; 3; 4; 5 ]
      in
      let got = List.sort compare (Depfast.Event.stallers ev) in
      got = expected)

let suite =
  [
    ( "event.basic",
      [
        Alcotest.test_case "signal lifecycle" `Quick test_signal_lifecycle;
        Alcotest.test_case "fire compound rejected" `Quick test_fire_compound_rejected;
        Alcotest.test_case "add to basic rejected" `Quick test_add_to_basic_rejected;
        Alcotest.test_case "peers deduplicated" `Quick test_peers;
        Alcotest.test_case "nested peers keep DFS order" `Quick test_peers_nested_order;
        Alcotest.test_case "basic peers come from the key" `Quick test_peers_basic;
        Alcotest.test_case "nested peers follow late children" `Quick test_peers_nested_late_child;
        Alcotest.test_case "a signal is 9 words" `Quick test_signal_words;
        Alcotest.test_case "children keep attachment order" `Quick test_children_order;
        Alcotest.test_case "observers keep registration order" `Quick test_observer_order;
        Alcotest.test_case "dropped observers do not run" `Quick test_drop_waiter;
      ] );
    ( "event.compound",
      [
        Alcotest.test_case "quorum majority" `Quick test_quorum_majority;
        Alcotest.test_case "quorum count" `Quick test_quorum_count;
        Alcotest.test_case "and / or" `Quick test_and_or;
        Alcotest.test_case "already-ready child" `Quick test_add_already_ready_child;
        Alcotest.test_case "or of quorums (fast path)" `Quick test_nesting_or_of_quorums;
        Alcotest.test_case "and of quorums (2PC)" `Quick test_nesting_and_of_quorums;
        QCheck_alcotest.to_alcotest test_quorum_fire_order_property;
      ] );
    ( "event.abandon",
      [
        Alcotest.test_case "abandon propagates" `Quick test_abandon;
        Alcotest.test_case "shared child kept" `Quick test_abandon_shared_child_kept;
        Alcotest.test_case "fire and abandon exclude each other" `Quick
          test_fire_abandon_exclusive;
      ] );
    ( "event.stallers",
      [
        Alcotest.test_case "basic events" `Quick test_stallers_basic;
        Alcotest.test_case "quorum vs and" `Quick test_stallers_quorum;
        Alcotest.test_case "nested" `Quick test_stallers_nested;
        Alcotest.test_case "abandoned child" `Quick test_stallers_abandoned_child;
        Alcotest.test_case "abandoned child (nested)" `Quick test_stallers_abandoned_nested;
        QCheck_alcotest.to_alcotest test_stallers_brute_force;
      ] );
  ]
