type severity = Error | Warning | Info

type location =
  | File of { file : string; line : int }
  | Node of { event_id : int; event_label : string }

type t = {
  rule : string;
  severity : severity;
  loc : location;
  message : string;
  allowed : bool;
}

(* pragma hygiene (the one per-file check) *)
let unknown_pragma = "unknown-pragma"

(* lock and arity rules (the interprocedural pass) *)
let lock_across_call = "lock-across-call"
let lock_order_cycle = "lock-order-cycle"
let quorum_arity_mismatch = "quorum-arity-mismatch"

(* boundedness & timeout-coverage rules (the depfast-bounds pass) *)
let unbounded_growth = "unbounded-growth"
let missing_deadline = "missing-deadline"
let unbounded_retry = "unbounded-retry"

(* domain-safety rule (the depfast-domains pass) *)
let unsafe_shared_state = "unsafe-shared-state"

(* slowness-propagation rules (the depfast-spg pass) *)
let red_exposure = "red-exposure"
let spg_stale_edge = "spg-stale-edge"

(* dynamic rules, reported by the schedule-space checker (lib/check) *)
let lost_wakeup = "lost-wakeup"
let double_wake = "double-wake"
let parked_on_abandoned = "parked-on-abandoned"
let unsatisfiable_wait = "unsatisfiable-wait"
let quorum_overcount = "quorum-overcount"
let net_fifo_violation = "net-fifo-violation"
let parked_at_quiescence = "parked-at-quiescence"
let dynamic_red_wait = "dynamic-red-wait"
let invariant_violation = "invariant-violation"
let certificate_mismatch = "certificate-mismatch"
let queue_gauge_overflow = "queue-gauge-overflow"

(* the ids a source pragma can exempt: the static passes read pragmas,
   the schedule-space checker does not *)
let static_rules =
  [
    (unknown_pragma, "depfast-lint pragma naming a rule id that no static pass reports");
    (lock_across_call,
     "suspension point, or call into a (transitively) suspending function, while a \
      Depfast.Mutex is held");
    (lock_order_cycle, "mutex acquisition-order cycle across functions/modules (static deadlock)");
    (quorum_arity_mismatch,
     "quorum Count k that the children flowing into it cannot satisfy, or that comes \
      from a value tainted by a fail-slow resource");
    (unbounded_growth,
     "remote-triggered accumulation with no drain, truncation, or capacity check \
      in the same call-graph component");
    (missing_deadline, "untimed quorum wait with no timer/or_ escape on any path");
    (unbounded_retry, "retry loop around a timed-out remote call with no attempt bound or backoff");
    (unsafe_shared_state,
     "top-level mutable cell written outside any Mutex region or owner record: \
      unsafe to share across OCaml 5 domains");
    (red_exposure,
     "fate-sharing wait statically reachable from a fail-slow resource site \
      with no timeout escape on the waiting function");
  ]

let rules =
  static_rules
  @ [
    (spg_stale_edge,
     "static red exposure for the injected fault kind never observed as a \
      red SPG edge across the explored schedules (possible stale certificate)");
    (lost_wakeup, "coroutine parked on an event that is ready, with no wakeup delivered");
    (double_wake, "more than one wakeup delivered for a single park");
    (parked_on_abandoned, "coroutine parked forever on an abandoned event");
    (unsatisfiable_wait,
     "coroutine parked on a compound event that can no longer gather enough ready children");
    (quorum_overcount, "compound event's ready counter disagrees with its children's states");
    (net_fifo_violation, "messages reordered on a directed network link");
    (parked_at_quiescence,
     "coroutine still parked when no work remains — a deadlock or missed signal");
    (dynamic_red_wait, "a wait observed at run time that one remote node can stall");
    (invariant_violation, "a scenario's terminal-state invariant does not hold");
    (certificate_mismatch,
     "dynamic violation in code the static analyses certified as clean (or vice versa)");
    (queue_gauge_overflow,
     "a registered queue/log depth gauge grew monotonically past its declared cap");
  ]

let v ~rule ~severity ~loc message = { rule; severity; loc; message; allowed = false }

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let loc_string = function
  | File { file; line } -> Printf.sprintf "%s:%d" file line
  | Node { event_id; event_label } ->
    if event_label = "" then Printf.sprintf "event #%d" event_id
    else Printf.sprintf "event #%d (%s)" event_id event_label

let to_string f =
  Printf.sprintf "%s: [%s] %s: %s%s" (loc_string f.loc) (severity_name f.severity)
    f.rule f.message
    (if f.allowed then "  (allowed)" else "")

let unallowed fs = List.filter (fun f -> not f.allowed) fs
let gating ~strict fs = List.filter (fun f -> strict || f.severity = Error) (unallowed fs)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  let loc_fields =
    match f.loc with
    | File { file; line } -> Printf.sprintf "\"file\": \"%s\", \"line\": %d" (json_escape file) line
    | Node { event_id; event_label } ->
      Printf.sprintf "\"event_id\": %d, \"event_label\": \"%s\"" event_id (json_escape event_label)
  in
  Printf.sprintf
    "{%s, \"rule\": \"%s\", \"severity\": \"%s\", \"allowed\": %b, \"message\": \"%s\"}"
    loc_fields (json_escape f.rule) (severity_name f.severity) f.allowed (json_escape f.message)

(* Stable per-finding id: FNV-1a over the identifying fields, so a
   finding keeps its id across runs, path orderings and unrelated edits
   (but not across edits to its own file/line/message — an id names a
   concrete finding, not an abstract defect). *)
let stable_id ~pass f =
  let s = Printf.sprintf "%s|%s|%s|%s" pass f.rule (loc_string f.loc) f.message in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%012Lx" (Int64.logand !h 0xffffffffffffL)

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let by_location a b =
  let c =
    match (a.loc, b.loc) with
    | File fa, File fb ->
      let c = compare fa.file fb.file in
      if c <> 0 then c else compare fa.line fb.line
    | Node na, Node nb -> compare na.event_id nb.event_id
    | File _, Node _ -> -1
    | Node _, File _ -> 1
  in
  if c <> 0 then c
  else
    (* total enough that reporting order cannot depend on discovery
       order (directory read order, hashtable iteration, ...) *)
    let c = compare a.rule b.rule in
    if c <> 0 then c
    else
      let c = compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c
      else
        let c = compare a.message b.message in
        if c <> 0 then c else compare a.allowed b.allowed
