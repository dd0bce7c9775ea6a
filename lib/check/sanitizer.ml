(* The fail-slow sanitizer: runtime invariants checked at every explored
   state. [create] installs a Sched monitor that shadows the park/wake/
   resume protocol of every coroutine, and the checks below compare that
   shadow against the event structures. The shadow is flat — coroutines in
   an array indexed by cid, parked events appended to another — so the
   hooks allocate nothing past a cid's first sight, and [reset] readies
   one instance, its shadows kept, for the next run of an exploration. *)

type state = Running | Parked | Woken | Finished

type coro = {
  mutable c_node : int;
  mutable c_name : string;
  mutable c_state : state;
  mutable c_event : Depfast.Event.t;
      (* event parked on when Parked/Woken, [Event.dummy] otherwise *)
  mutable c_run : int;  (* the run that last saw its cid *)
}

type violation = {
  rule : string;  (* an {!Analysis.Finding} rule id *)
  coroutine : string;
  node : int;
  event_id : int;
  event_label : string;
  message : string;
}

(* A queue-depth gauge: a scenario-registered probe over a live
   container whose boundedness the static pass certified. The explorer
   samples every gauge at each choice point and at terminal states; a
   watermark past the declared cap is a [queue-gauge-overflow], and —
   when the gauge's file is statically certified bounded — a
   certificate mismatch (the cross-check lives in Explore). *)
type gauge = {
  g_label : string;
  g_file : string;  (* source file owning the container *)
  g_cap : int;  (* declared bound *)
  g_read : unit -> int;  (* live depth *)
  mutable g_watermark : int;
  mutable g_reported : bool;  (* overflow reported once per run *)
}

type overflow = { o_label : string; o_file : string; o_cap : int; o_watermark : int }

type t = {
  sched : Depfast.Sched.t;
  no_coro : coro;  (* fills the cid slots not spawned this run *)
  mutable coros : coro array;  (* indexed by cid *)
  mutable run : int;  (* bumped at every [reset] *)
  mutable parked : Depfast.Event.t array;
      (* every event parked on this run, in park order, repeats included;
         the checks walk their children and dedup *)
  mutable n_parked : int;
  visited : (int, unit) Hashtbl.t;  (* [check_counters]' dedup, by event id *)
  mutable gauges : gauge list;
  mutable violations : violation list;  (* reverse report order *)
}

let report t ~rule ?(coroutine = "") ?(node = -1) ?(event_id = 0) ?(event_label = "")
    message =
  t.violations <- { rule; coroutine; node; event_id; event_label; message } :: t.violations

let violations t = List.rev t.violations

let report_for t ~rule (c : coro) ev message =
  report t ~rule ~coroutine:c.c_name ~node:c.c_node ~event_id:(Depfast.Event.id ev)
    ~event_label:(Depfast.Event.label ev) message

let add_gauge t ~label ~file ~cap read =
  t.gauges <-
    {
      g_label = label;
      g_file = file;
      g_cap = cap;
      g_read = read;
      g_watermark = 0;
      g_reported = false;
    }
    :: t.gauges

(* The violation message is watermark-free on purpose: the explorer
   dedups sites across schedules by (rule, label, message), and the
   depth at which a gauge happens to be sampled varies per
   interleaving. Watermarks travel via {!gauge_overflows}. A plain loop:
   [List.iter]'s closure would be built at every choice point. *)
let rec sample t = function
  | [] -> ()
  | g :: rest ->
    let d = g.g_read () in
    if d > g.g_watermark then g.g_watermark <- d;
    if g.g_watermark > g.g_cap && not g.g_reported then begin
      g.g_reported <- true;
      report t ~rule:Analysis.Finding.queue_gauge_overflow ~event_label:g.g_label
        (Printf.sprintf
           "queue depth exceeded the declared cap %d at a statically certified site (%s)"
           g.g_cap g.g_file)
    end;
    sample t rest

let sample_gauges t = sample t t.gauges

(* the coroutine [cid], or [t.no_coro] if this run never saw it *)
let find t cid =
  if cid < Array.length t.coros && t.coros.(cid).c_run = t.run then t.coros.(cid) else t.no_coro

let gauge_overflows t =
  List.filter_map
    (fun g ->
      if g.g_watermark > g.g_cap then
        Some
          { o_label = g.g_label; o_file = g.g_file; o_cap = g.g_cap; o_watermark = g.g_watermark }
      else None)
    t.gauges
  |> List.sort compare

(* [a] copied into twice the room (16 at first), padded with [fill] *)
let grown a fill =
  let b = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let coro_of t cid ~node ~name =
  let c = find t cid in
  if c != t.no_coro then c
  else begin
    while cid >= Array.length t.coros do
      t.coros <- grown t.coros t.no_coro
    done;
    if t.coros.(cid) == t.no_coro then t.coros.(cid) <- { t.no_coro with c_run = t.run };
    let c = t.coros.(cid) in
    c.c_node <- node;
    c.c_name <- name;
    c.c_run <- t.run;
    c
  end

let add_parked t ev =
  if t.n_parked = Array.length t.parked then t.parked <- grown t.parked Depfast.Event.dummy;
  t.parked.(t.n_parked) <- ev;
  t.n_parked <- t.n_parked + 1

(* the shadows stay, holding nothing of the run, and no park the checks see *)
let reset t =
  t.run <- t.run + 1;
  Array.iter
    (fun c ->
      c.c_name <- "";
      c.c_state <- Running;
      c.c_event <- Depfast.Event.dummy)
    t.coros;
  Array.fill t.parked 0 t.n_parked Depfast.Event.dummy;
  t.n_parked <- 0;
  t.gauges <- [];
  t.violations <- []

let create sched =
  let t =
    {
      sched;
      no_coro = { c_node = -1; c_name = ""; c_state = Running; c_event = Depfast.Event.dummy; c_run = -1 };
      coros = [||];
      run = 0;
      parked = [||];
      n_parked = 0;
      visited = Hashtbl.create 64;
      gauges = [];
      violations = [];
    }
  in
  Depfast.Sched.set_monitor sched
    (Some
       {
         Depfast.Sched.on_spawn = (fun ~cid ~node ~name -> ignore (coro_of t cid ~node ~name));
         on_park =
           (fun ~cid ~node ~name ev ->
             let c = coro_of t cid ~node ~name in
             c.c_state <- Parked;
             c.c_event <- ev;
             add_parked t ev);
         on_wake =
           (fun ~cid ev _wake ->
             let c = find t cid in
             if c != t.no_coro then
               match c.c_state with
               | Parked -> c.c_state <- Woken
               | Running | Woken | Finished ->
                 report_for t ~rule:Analysis.Finding.double_wake c ev
                   "second wakeup delivered for a single park");
         on_resume =
           (fun ~cid ->
             let c = find t cid in
             if c != t.no_coro then begin
               c.c_state <- Running;
               c.c_event <- Depfast.Event.dummy
             end);
         on_done =
           (fun ~cid ->
             let c = find t cid in
             if c != t.no_coro then c.c_state <- Finished);
       });
  t

(* Can [ev] still fire, structurally: is it ready, or does it have enough
   live (non-abandoned, recursively satisfiable) children to reach its
   required count? Basic pending events can always be fired by someone. *)
let rec can_fire ev =
  let open Depfast.Event in
  if is_ready ev then true
  else if is_abandoned ev then false
  else
    match kind ev with
    | Signal | Timer | Rpc | Disk -> true
    | Quorum | And_ | Or_ ->
      let fireable = ref 0 in
      iter_children ev (fun c -> if can_fire c then incr fireable);
      !fireable >= required ev

(* Counter consistency — sound at any point of the run: a still-pending
   compound's packed ready counter must equal a recount of its children,
   and can never exceed the child count (a double-fire would). Once the
   compound has fired, late-firing children legitimately outrun the
   counter, so only the arity bound is checked. *)
let check_counters t =
  Hashtbl.clear t.visited;
  let rec go ev =
    let open Depfast.Event in
    let id = Depfast.Event.id ev in
    if not (Hashtbl.mem t.visited id) then begin
      Hashtbl.replace t.visited id ();
      (match kind ev with
      | Signal | Timer | Rpc | Disk -> ()
      | Quorum | And_ | Or_ ->
        let actual = ref 0 in
        iter_children ev (fun c -> if is_ready c then incr actual);
        let counted = ready_children ev in
        if counted > child_count ev then
          report t ~rule:Analysis.Finding.quorum_overcount ~event_id:id
            ~event_label:(label ev)
            (Printf.sprintf "ready counter %d exceeds arity %d" counted (child_count ev))
        else if (not (is_ready ev)) && (not (is_abandoned ev)) && counted <> !actual then
          report t ~rule:Analysis.Finding.quorum_overcount ~event_id:id
            ~event_label:(label ev)
            (Printf.sprintf "ready counter %d but %d children are ready" counted !actual));
      iter_children ev go
    end
  in
  for i = 0 to t.n_parked - 1 do
    go t.parked.(i)
  done

(* Lost wakeup — sound at any point: firing an event runs its observers
   synchronously, so a coroutine parked on a *ready* event without a
   delivered wakeup can only mean the park/wake protocol broke. *)
let check_live t =
  check_counters t;
  Array.iter
    (fun c ->
      if c.c_state = Parked && Depfast.Event.is_ready c.c_event then
        report_for t ~rule:Analysis.Finding.lost_wakeup c c.c_event
          "parked on a ready event with no wakeup delivered")
    t.coros

(* Terminal checks — only sound when the engine is truly quiescent (no
   posted work, no live timers): then nothing can ever add children, fire
   events, or time a wait out, so every parked coroutine is parked
   forever. *)
let check_quiescent t =
  check_live t;
  Array.iter
    (fun c ->
      let ev = c.c_event in
      match c.c_state with
      | Parked when not (Depfast.Event.is_ready ev) ->
        if Depfast.Event.is_abandoned ev then
          report_for t ~rule:Analysis.Finding.parked_on_abandoned c ev
            "parked forever on an abandoned event"
        else if not (can_fire ev) then
          report_for t ~rule:Analysis.Finding.unsatisfiable_wait c ev
            (Printf.sprintf "needs %d ready children but only %d can still fire"
               (Depfast.Event.required ev)
               (let n = ref 0 in
                Depfast.Event.iter_children ev (fun ch -> if can_fire ch then incr n);
                !n))
        else
          report_for t ~rule:Analysis.Finding.parked_at_quiescence c ev
            "parked with no work left that could fire the event"
      | _ -> ())
    t.coros

let parked_count t =
  Array.fold_left (fun acc c -> if c.c_state = Parked then acc + 1 else acc) 0 t.coros
