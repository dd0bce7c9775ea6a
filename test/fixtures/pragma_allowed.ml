(* fixture: a red wait exempted by pragma — the finding is still reported
   but marked allowed, so it does not gate CI *)
let ask_leader sched ~leader =
  let reply = Depfast.Event.rpc_completion ~peer:leader () in
  (* depfast-lint: allow red-exposure — client waits on the
     leader it queried (Figure 2) *)
  Depfast.Sched.wait sched reply
