(* fixture: naked wait on a single rpc completion — red, exposed to a
   slow peer, and untimed, so red-exposure flags it as an error *)
let replicate sched ~peer =
  let ack = Depfast.Event.rpc_completion ~peer () in
  Depfast.Sched.wait sched ack;
  ack
