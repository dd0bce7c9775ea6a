(** Front end 1: call-site lint over OCaml sources.

    A token-level scanner (no type information) that tracks, per file:
    which let-bound variables hold bare remote completion events, which
    top-level functions return one, which compounds are [and_]s, and
    which regions run under a [Depfast.Mutex]. Rules:

    - {b red-wait}: [Sched.wait]/[wait_timeout] applied directly to an
      [Event.rpc_completion]/[disk_completion] (or a local function
      returning one) outside a quorum/or_ wrapper.
    - {b unbounded-wait}: a plain [Sched.wait] (no timeout) on a bare
      rpc completion — no [or_]/timer escape at all.
    - {b degenerate-quorum}: an [Event.and_] that accumulates two or
      more remote completions via [Event.add] (k = n).
    - {b lock-across-wait}: any suspension point ([Sched.wait],
      [Condvar.wait], ...) inside a [Mutex.with_lock] body or between
      [Mutex.lock]/[unlock].

    Findings at a line L are exempted by a pragma comment
    [(* depfast-lint: allow rule-id ... *)] starting on lines L-3..L.

    Remote completions are tracked through plain and flat-tuple [let]
    bindings ([let ev, meta = begin_call peer in ...]) and through
    local functions returning them, scalar or tuple-shaped. Remaining
    blind spots, accepted for a {e per-file} pass: events crossing
    module boundaries (other than the built-in
    [Cluster.Rpc.event]/[Cluster.Disk.read] producers), record fields,
    and lock/suspension facts hidden behind calls — all of which
    {!Interproc} closes with whole-project summaries.
    [Disk.write]/[fsync] are deliberately {e not} treated as remote
    producers: awaiting one's own WAL durability is protocol-inherent,
    while a blocking [Disk.read] on the request path is the TiDB
    anti-pattern (§2). *)

val lint_string : ?path:string -> string -> Finding.t list
(** Lint source text; [path] names the file in locations. *)

val lint_file : string -> Finding.t list

val lint_tokens :
  path:string -> Lexer.token array -> int array -> Lexer.pragma list -> Finding.t list
(** Lint an already lexed file: its tokens, their {!paren_matches} and
    its pragmas. {!Growth.lint} runs this over a loaded project. *)

val read_source : string -> string
(** The contents of a file: the one reader every front end uses. *)

val allow_pragmas : (string -> Lexer.pragma list) -> Finding.t list -> Finding.t list
(** Mark as allowed the findings that a pragma of their file allows
    ({!Lexer.allows}); the argument maps a path to its pragmas. *)

val ml_files : string list -> string list
(** The [.ml] sources under the given paths, in order: each directory
    is walked depth-first with its entries sorted, skipping [_build] and
    [.git] and the generated [.pp.ml] files; a path naming a file is
    kept if it is an [.ml] source. Every static-pass front end walks
    the tree through this. *)

(** {2 Token-stream toolkit}

    Shared with the interprocedural pass ({!Interproc}); stable only
    within this library. *)

type kind = Rpc | Disk

val kind_name : kind -> string

val builtin_producers : (string * kind) list
(** Qualified names (matched on their last two segments) constructing a
    bare remote-completion event. *)

val local_constructors : string list
(** Heads constructing a local or compound event — binding one cancels
    any remote-completion fact. *)

val iter_names : string list
(** Iteration heads ([List.iter], [Array.iteri], ...) whose closure body
    runs once per element. *)

val last2 : string -> string
(** The last two dot-segments of a qualified name. *)

val is_simple : string -> bool
(** True when the name has no dot. *)

val last_segment : string -> string

val canon : mdl:string -> top:(string -> bool) -> string -> string
(** [canon ~mdl ~top raw]: the canonical name of a cell or mutex mention
    written in module [mdl] — [Module.x] for a simple name [top] holds
    module-level, [M.x] for a qualified one, [.field] for a record
    field (same-named fields merge across types), and a ["?"]-prefixed
    name when its identity is unknowable (locals, parameters). *)

val canonical : string -> bool
(** Is this a canonical name rather than a ["?"]-prefixed unknown? *)

type atom = AName of string | AParen of string option | AOther

val qualified : Lexer.token array -> int -> string * int * int
(** [qualified a i] reads the dotted name starting at token [i]:
    (name, line, index past it). *)

val parse_atom : Lexer.token array -> int array -> int -> atom * int
(** Consume one argument-shaped expression: a dotted name, or a
    parenthesised expression reduced to its first inner head. *)

val paren_matches : Lexer.token array -> int array
(** [pm.(i)] is the index of the [')'] matching an ['('] at [i], or -1. *)

val boundaries : Lexer.token array -> int list
(** Indices of column-0 structure keywords ([let], [module], ...) —
    top-level item boundaries. *)

val spans : Lexer.token array -> (int * int) list
(** Top-level items as [(first token, end)] spans, end exclusive. *)

val lock_regions :
  Lexer.token array -> int array -> int -> int -> (string option * int * int) list
(** [lock_regions a pm lo hi]: the [Depfast.Mutex] regions among tokens
    [lo, hi), as [(mutex, first, last)] — a [with_lock sched mu (fun
    ...)] body, a [with_lock sched mu @@ fun ...] tail up to [hi - 1],
    and a [lock sched mu] .. [unlock mu] span (unclosed: to [hi - 1]).
    [mutex] is the lock's name when it is written as a plain name. The
    per-file lint, {!Interproc} and {!Effects} share this scanner. *)

val tuple_components : Lexer.token array -> int array -> int -> string option list option
(** Head names of the components of a literal tuple [(e1, e2, ...)]
    starting at the given ['('] token; [None] if it is not one. *)

type pattern = PVar of string | PTuple of string list
type rhs = RHead of string option | RTuple of string option list

val binding_at : Lexer.token array -> int array -> int -> (pattern * rhs * int) option
(** A binding [let <pat> = <rhs>] at token [i], where the pattern is a
    plain variable or a flat tuple of simple names: the pattern, the
    right-hand-side shape and the index of the [=]. Function definitions
    (parameters before the [=]) return [None]. *)
