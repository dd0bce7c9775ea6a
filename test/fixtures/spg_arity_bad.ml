(* depfast-spg fixture: a quorum that claims green but whose Count
   arity flows from a net-tainted callee — the slow resource controls
   the mitigation's own k, so the pass must report
   [quorum-arity-mismatch]. *)

let count_live rpc =
  let probe = Rpc.call rpc ~peer:0 "ping" in
  ignore probe;
  3

let gather sched rpc =
  let n = count_live rpc in
  let q = Event.quorum ~label:"acks" (Event.Count n) in
  Sched.wait sched q
