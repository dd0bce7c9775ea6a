(* fixture: the suspending quorum wait is the [and] half of a [let rec],
   so only a pass that summarizes [and]-bound functions can see that
   [await_majority] suspends *)
let rec await_rounds sched ~peers rounds =
  if rounds > 0 then begin
    await_majority sched ~peers;
    await_rounds sched ~peers (rounds - 1)
  end

and await_majority sched ~peers =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  List.iter
    (fun peer -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer ()))
    peers;
  Depfast.Sched.wait sched q
