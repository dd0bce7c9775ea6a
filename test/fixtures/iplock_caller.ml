(* fixture: the RethinkDB hazard hidden behind a call boundary — the
   suspension happens two frames down in Iplock_callee, so only the
   callee's summary shows that this locked region suspends *)
let state_mu = Depfast.Mutex.create ~label:"state" ()

let commit sched ~peers =
  Depfast.Mutex.with_lock sched state_mu (fun () ->
      Iplock_callee.await_majority sched ~peers)
