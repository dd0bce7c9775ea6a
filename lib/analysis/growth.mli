(** The project model every whole-project pass runs over, and the
    growth analysis behind the depfast-bounds pass ({!Bounds}).

    {!load} is the only place where sources are lexed, paren-matched,
    pragma-collected, split into top-level items and indexed by name:
    {!Interproc}, {!Bounds}, {!Domains} and {!Spg_static} are each a
    function over one {!project}. Every [let] item, and every [and] item
    continuing one, becomes a {!fn} named [Module.name] (module from the
    file's basename; the first definition wins on a collision). The
    module-level value table ({!value}) and the one scan that recognises
    quorum bindings ({!scan}) live here too.

    On first use the model also closes a call graph where {e any}
    resolvable name mentioned in a body is an edge (closures are treated
    as invoked, so a pump thunk stored in a record still connects its
    installer to the drain), and the set of {e remote-triggered roots}
    — functions named inside the closure argument of [Rpc.serve]/
    [Net.register] handlers, [spawn] thunks, and [Event.on_fire]
    callbacks.

    The growth analysis then collects {e accumulation sites}
    ([Queue.add], [Hashtbl.add], [Buffer.add_*], [Rlog.append], list
    cons onto a field, counter-window increments) over {e canonical}
    containers (module-level stores as [Module.x], record fields as
    [.field]; locals are scoped and skipped) and {e bound evidence}
    (drains, truncation, length-comparison capacity checks, counter
    decrements). A site reachable from a remote-triggered root is
    flagged {!Finding.unbounded_growth} when {e some} root's reachable
    component contains no bound evidence for its container: the exists
    semantics means backpressure must live on the producing path, not
    in a sibling drain loop. Counter windows never flag — a bare [int]
    consumes no memory — they only yield certificates when bounded.

    Like the other front ends this is a token-level heuristic, neither
    sound nor complete; same-named record fields merge across types and
    every mention is assumed reachable. *)

(** {2 Certificates}

    The one certificate record: {!Bounds}, {!Domains} and {!Spg_static}
    each return a list of these. *)

type verdict = Bounded | Flagged

type cert = {
  c_rule : string;  (** the rule family this site was judged under *)
  c_kind : string;
      (** [queue | hashtbl | buffer | log | cons | counter-window |
          quorum-wait | retry] *)
  c_file : string;
  c_line : int;
  c_site : string;  (** canonical container / window name, or the function *)
  c_verdict : verdict;
  c_evidence : string;  (** witness: what bounds it, or why it is flagged *)
}

val cert_to_json : cert -> string
val by_site : cert -> cert -> int

(** {2 Project model} *)

type shape =
  | Fun of string list  (** a function: its positional parameters, in order *)
  | Value  (** [let x = ...], [let () = ...], [let (a, b) = ...] *)
  | Other  (** operator definitions and other patterns *)

type fn = {
  g_qname : string;  (** [Module.name]; [Module.<unit:L>] for anonymous items *)
  g_name : string;  (** [name] as written; [""] for anonymous items *)
  g_line : int;
  g_b : int;  (** first token of the item *)
  g_body : int;  (** first token after the binding's [=] *)
  g_e : int;  (** exclusive *)
  g_shape : shape;
}

type file_ctx = {
  fc_path : string;
  fc_mdl : string;
  fc_toks : Lexer.token array;
  fc_pm : int array;
  fc_pragmas : Lexer.pragma list;
  fc_fns : fn list;
  fc_stores : (string, unit) Hashtbl.t;
}

type project

val load : (string * string) list -> project
(** Parse every [(path, contents)] pair and index the items by name. The
    call graph, roots and reachability are closed on first use. *)

val load_files : string list -> project
(** {!load} over the files read with {!Source_lint.read_source}. *)

val files : project -> file_ctx list

val resolve : project -> mdl:string -> string -> string option
(** Resolve a name as written in module [mdl] ([f], [M.f], [Lib.M.f]): a
    simple name in its own module, a dotted one on its last two
    segments. [None] when nothing of that name is defined. A simple name
    resolves through its module's table of local names, building
    nothing. *)

val resolve_at : project -> file_ctx -> int -> int -> string option
(** [resolve_at p fc i (Source_lint.after fc.fc_toks i)]: {!resolve} of
    the dotted name starting at token [i] of [fc], through the table of
    the module its second-to-last segment names; it builds nothing
    whatever the name's length. *)

(** A module-level value fact: an int constant, a list literal's length,
    an alias of another name, or a mutex ([Mutex.create]). *)
type value = MInt of int | MLen of int | MAlias of string | MLock

val value : project -> mdl:string -> string -> value option
(** The fact of a module-level value named as written in module [mdl]
    ([x], [M.x], [Lib.M.x]), aliases chased up to four hops (so never
    [MAlias]); [None] for functions, locals and unknown names. The table
    is built on first use. *)

val allow : project -> Finding.t list -> Finding.t list
(** Apply the pragmas of each finding's file ({!Lexer.allows}). *)

val lint : project -> Finding.t list
(** The one per-file check, pragma hygiene ({!Source_lint.check_pragmas}),
    over every file of the project. *)

val callees : project -> string -> string list
(** Resolved call edges out of a function, sorted; [[]] if unknown. *)

val nth_arg : Lexer.token array -> int -> int -> (string * int) option
(** [nth_arg a i k]: the [k]-th positional argument after token [i] as
    a dotted name, with its first token; [~label:] arguments skipped. *)

val remote_reachable : project -> string -> bool
(** Is the function with this qualified name reachable from any
    remote-triggered root? *)

(** {2 Wait sites} *)

type binding =
  | Quorum of string
      (** a quorum, with the head that built it: ["Event.quorum"] or
          ["Rpc.broadcast"] *)
  | Or_
  | And_

type wait = {
  w_line : int;
  w_head : string;
      (** [Sched.wait | Sched.wait_timeout | Condvar.wait |
          Condvar.wait_timeout], or, for a call handing its argument to a
          callee that waits on it ([?via]), the callee as written *)
  w_event : Source_lint.atom;  (** the waited event or condvar *)
  w_binding : binding option;  (** what a simple event name is bound to *)
  w_timered : bool;  (** a [Sched.timer] child was wired into that [Event.quorum] *)
  w_from : string option;
      (** the head the waited event came from: the head of a
          parenthesised event, or the head its simple name was last bound
          to ([None] for quorum/or_/and_ bindings and unknown names) *)
  w_part : int option;
      (** [Some k] when that name was the [k]-th component of a tuple
          pattern bound to [w_from] *)
}

(** Where a quorum's [Count] arity comes from. *)
type count =
  | Const of int
      (** a literal, or a name that resolves to a constant: a module
          value ({!value}), a local bound to a literal, or a local copy of
          a module value *)
  | Local of string * string
      (** a local variable and the call head it was bound to *)

type quorum = {
  q_name : string;  (** the local the [Event.quorum] is bound to *)
  q_line : int;  (** the line of its [let] *)
  q_count : count option;  (** [None]: no [Count], or one not read *)
  q_adds : int option;
      (** the children [Event.add] wires into it in this body, each
          weighted by the lengths of the iterations around it; [None]
          when one of those lengths is unknown *)
  q_escapes : bool;
      (** passed to a project function or returned, so children may be
          added elsewhere *)
  q_timered : bool;  (** a [Sched.timer] child was wired into it *)
}

val wait_heads : string list
(** The suspension heads a wait site starts with, on their last two
    segments. *)

val scan : ?via:(string -> int option) -> project -> file_ctx -> fn -> wait list * quorum list
(** The one scan of a function that recognises quorum bindings: its
    wait sites in program order, each with the bindings in scope (behind
    {!Bounds}' [missing-deadline] and {!Spg_static}'s colouring), and
    its [Event.quorum] bindings (behind {!Spg_static}'s
    [quorum-arity-mismatch]). Iteration lengths are only computed in a
    body that adds a child to a bound quorum. [via name] is [Some k] when
    the function a call names (as written) waits on its [k]-th positional
    parameter: a same-line call to it is a wait site on that argument
    too. *)

val returns : project -> string -> string option list
(** The heads a function (by qualified name) returns on the last line of
    its body, as written in its module: one per component of a literal
    tuple, else one — an application's head, or the head a lone local
    was bound to. [[]] when unknown. *)

val analyze : project -> Finding.t list * cert list
(** The growth analysis, computed once per project:
    {!Finding.unbounded_growth} findings (pragmas not yet applied) and a
    certificate per remote-reachable site. *)
