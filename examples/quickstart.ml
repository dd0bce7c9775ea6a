(* Quickstart: coroutines, events, and the QuorumEvent.

   This walks through the paper's §3.1 in runnable form:
   1. the naive coroutine loop that waits on each RPC individually
      (synchronous style, but NOT fail-slow tolerant), and
   2. the QuorumEvent rewrite that tolerates a slow minority.

   Run with:  dune exec examples/quickstart.exe *)

let ms = Sim.Time.ms

(* a toy "replica": replies to an append after a per-replica delay *)
let replica sched ~peer ~delay =
  let reply = Depfast.Event.rpc_completion ~peer () in
  Depfast.Sched.spawn sched ~name:"replica" (fun () ->
      Depfast.Sched.sleep sched delay;
      Depfast.Event.fire reply);
  reply

let () =
  (* replica 2 is fail-slow: 2 seconds instead of ~10 ms *)
  let delays = [ (0, ms 8); (1, ms 12); (2, ms 2000) ] in

  (* --- version 1: wait on each event individually (§3.1, first listing) *)
  let engine = Sim.Engine.create () in
  let sched = Depfast.Sched.create engine in
  Depfast.Sched.spawn sched ~name:"leader-naive" (fun () ->
      List.iter
        (fun (peer, delay) ->
          let rpc_event = replica sched ~peer ~delay in
          (* the next line bears possible slowness; kept on purpose as the
             "before" half of the demo — the quorum loop below is the fix.
             depfast-lint: allow red-exposure *)
          Depfast.Sched.wait sched rpc_event)
        delays;
      Printf.printf "naive loop finished at %6.0f ms  <- dragged by the slow replica\n"
        (Sim.Time.to_ms_f (Depfast.Sched.now sched)));
  Depfast.Sched.run sched;

  (* --- version 2: QuorumEvent (§3.1, second listing) *)
  let engine = Sim.Engine.create () in
  let sched = Depfast.Sched.create engine in
  Depfast.Sched.spawn sched ~name:"leader-quorum" (fun () ->
      let quorum_event = Depfast.Event.quorum Depfast.Event.Majority in
      List.iter
        (fun (peer, delay) ->
          let rpc_event = replica sched ~peer ~delay in
          Depfast.Event.add quorum_event ~child:rpc_event
          (* no longer wait for any single event *))
        delays;
      (* wait for a majority *)
      Depfast.Sched.wait sched quorum_event;
      Printf.printf "quorum wait finished at %6.0f ms  <- slow minority tolerated\n"
        (Sim.Time.to_ms_f (Depfast.Sched.now sched));
      (* the audit agrees: no single node can stall this wait *)
      assert (Depfast.Event.stallers quorum_event = []));
  Depfast.Sched.run sched;

  (* --- nesting: the fast-path/slow-path idiom from §3.2 *)
  let engine = Sim.Engine.create () in
  let sched = Depfast.Sched.create engine in
  Depfast.Sched.spawn sched ~name:"fastpath" (fun () ->
      let fast_ok = Depfast.Event.quorum ~label:"fast_ok" (Depfast.Event.Count 2) in
      let fast_reject = Depfast.Event.quorum ~label:"fast_reject" (Depfast.Event.Count 2) in
      List.iteri
        (fun i (_, delay) ->
          let ok = Depfast.Event.rpc_completion ~peer:i () in
          Depfast.Event.add fast_ok ~child:ok;
          let reject = Depfast.Event.rpc_completion ~peer:i () in
          Depfast.Event.add fast_reject ~child:reject;
          Depfast.Sched.spawn sched ~name:"voter" (fun () ->
              Depfast.Sched.sleep sched delay;
              (* replicas 0 and 1 accept; the slow one would reject *)
              Depfast.Event.fire (if i < 2 then ok else reject)))
        delays;
      let fastpath = Depfast.Event.or_ ~label:"fastpath" () in
      Depfast.Event.add fastpath ~child:fast_ok;
      Depfast.Event.add fastpath ~child:fast_reject;
      match Depfast.Sched.wait_timeout sched fastpath (ms 1000) with
      | Depfast.Sched.Ready when Depfast.Event.is_ready fast_ok ->
        Printf.printf "fast path taken at   %6.0f ms  <- OrEvent over two QuorumEvents\n"
          (Sim.Time.to_ms_f (Depfast.Sched.now sched))
      | Depfast.Sched.Ready ->
        Printf.printf "fast path rejected; falling back to slow path\n"
      | Depfast.Sched.Timed_out -> Printf.printf "fast path timed out\n");
  Depfast.Sched.run sched
