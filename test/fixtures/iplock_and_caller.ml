(* fixture: iplock_caller.ml's hazard, with the callee's suspension in
   the [and] half of a [let rec] in Iplock_and_callee *)
let state_mu = Depfast.Mutex.create ~label:"state" ()

let commit sched ~peers =
  Depfast.Mutex.with_lock sched state_mu (fun () ->
      Iplock_and_callee.await_majority sched ~peers)
