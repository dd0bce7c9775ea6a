(* fixture: a perfectly green quorum wait — on its own this module is
   clean, but it does suspend, which matters to anyone calling it with
   a lock held *)
let await_majority sched ~peers =
  let q = Depfast.Event.quorum Depfast.Event.Majority in
  List.iter
    (fun peer -> Depfast.Event.add q ~child:(Depfast.Event.rpc_completion ~peer ()))
    peers;
  Depfast.Sched.wait sched q
