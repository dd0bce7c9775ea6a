(* fixture: the producing half of a cross-module red wait — this file
   never waits, but the completion it returns is bare, and the net
   exposure it seeds reaches whoever calls it *)
let begin_append sched ~peer =
  ignore sched;
  Depfast.Event.rpc_completion ~peer ()
