(* fixture: a station-like charge — the coroutine hands its wake to the
   job and parks holding no event of its own, until the job's completion
   calls the wake. On its own this module is clean, but the held park is
   a suspension, which matters to anyone charging with a lock held *)
type job = { mutable wake : unit -> unit; parked_on : Depfast.Event.t }

let run sched job =
  job.wake <- Depfast.Sched.wake sched;
  Depfast.Sched.hold sched job.parked_on
