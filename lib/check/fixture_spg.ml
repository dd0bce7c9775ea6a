(* SPG blind-spot fixture: slowness that arrives through an escaped
   alias.

   [post] mints a remote-completion event — a net-slow source under the
   depfast-spg taint seeding — and drops it into a module-level mailbox;
   [waiter_loop] takes the event back out and parks on it bare. The
   static slowness-propagation pass tracks taint along call edges, and
   no call edge connects the two functions (the event escapes through
   the queue), so the pass records {e no} net-slow exposure for this
   file. Dynamically the wait IS a fate-sharing net edge — a bare 1/1
   wait on a remote peer — so when the [spg-alias-blindspot] scenario
   injects [Net_slow], the explorer's cross-check sees an observed
   propagation edge land in a covered file with no matching static
   exposure and escalates [certificate-mismatch]. Being that blind spot
   is this fixture's whole job; the scenario stays out of the gating
   registry. *)

(* the escaped-alias channel itself: shared and growable by design *)
(* depfast-lint: allow unsafe-shared-state *)
let mailbox : Depfast.Event.t Queue.t = Queue.create ()

(* module state persists across the explorer's re-executions *)
let reset () = Queue.clear mailbox

let post ~peer =
  let ev = Depfast.Event.rpc_completion ~label:"sg.reply" ~peer () in
  (* depfast-lint: allow unbounded-growth — one event per run, drained
     by the waiter; bounding it would defeat the escaped-alias shape *)
  Queue.add ev mailbox;
  ev

let waiter_loop sched =
  match Queue.take_opt mailbox with
  | None -> ()
  | Some ev ->
    (* the statically invisible net wait: no static exposure reaches
       it, so the dynamic cross-check must catch what the static pass
       cannot *)
    Depfast.Sched.wait sched ev

let spawn sched =
  reset ();
  let ev = post ~peer:1 in
  Depfast.Sched.spawn sched ~node:0 ~name:"sg.waiter" (fun () ->
      waiter_loop sched);
  Depfast.Sched.spawn sched ~node:1 ~name:"sg.firer" (fun () ->
      Depfast.Sched.yield sched;
      Depfast.Event.fire ev)
