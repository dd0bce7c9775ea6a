(* fixture: the consuming half — the event's remote provenance is
   hidden behind Xmod_producer, so only the whole-project exposure
   map sees the red wait split across two modules. *)
let replicate sched ~peer =
  let ack = Xmod_producer.begin_append sched ~peer in
  Depfast.Sched.wait sched ack
