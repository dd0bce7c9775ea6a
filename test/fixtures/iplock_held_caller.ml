(* fixture: the RethinkDB hazard behind a held park — the charge parks
   inside Iplock_held_callee, so only the callee's summary shows that
   this locked region suspends *)
let apply_mu = Depfast.Mutex.create ~label:"apply" ()

let apply sched job =
  Depfast.Mutex.with_lock sched apply_mu (fun () -> Iplock_held_callee.run sched job)
