(** The token-stream toolkit every static pass shares, and the one
    check that needs only a single file: pragma hygiene.

    The rules themselves run over the whole project ({!Growth.project}):
    {!Spg_static} judges every wait site, {!Interproc} every locked
    region and quorum arity, {!Bounds} and {!Domains} growth and shared
    state. What is left here is {b unknown-pragma}: a
    [(* depfast-lint: allow rule-id ... *)] comment naming an id that is
    not in {!Finding.static_rules}. A retired or misspelt id, or a
    dynamic checker's id, would otherwise exempt nothing, silently.

    Findings at a line L are exempted by a pragma comment starting on
    lines L-3..L ({!Lexer.allows}). *)

val lint_string : ?path:string -> string -> Finding.t list
(** Check the pragmas of source text; [path] names the file in
    locations. *)

val lint_file : string -> Finding.t list

val check_pragmas : path:string -> Lexer.pragma list -> Finding.t list
(** The {!Finding.unknown_pragma} findings of one file's pragmas, at the
    line each pragma comment starts on. {!Growth.lint} runs this over a
    loaded project. *)

val read_source : string -> string
(** The contents of a file: the one reader every front end uses. *)

val ml_files : string list -> string list
(** The [.ml] sources under the given paths, in order: each directory
    is walked depth-first with its entries sorted, skipping [_build] and
    [.git] and the generated [.pp.ml] files; a path naming a file is
    kept if it is an [.ml] source. Every static-pass front end walks
    the tree through this. *)

(** {2 Token-stream toolkit}

    Shared by the whole-project passes; stable only within this
    library. *)

val last2 : string -> string
(** The last two dot-segments of a qualified name. *)

val last2_at : Lexer.token array -> int -> int -> string
(** [last2_at a i (after a i)]: {!last2} of the dotted name starting at
    token [i], shared with the token array rather than built. *)

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

val after : Lexer.token array -> int -> int
(** [after a i]: the index past the dotted name starting at token [i],
    the one [a.(i).dotted] spells. *)

val parse_atom : Lexer.token array -> int array -> int -> atom * int
(** Consume one argument-shaped expression: a dotted name, or a
    parenthesised expression reduced to its first inner head. *)

val paren_matches : Lexer.token array -> int array
(** [pm.(i)] is the index of the [')'] matching an ['('] at [i], or -1. *)

val spans : Lexer.token array -> (int * int) list
(** Top-level items as [(first token, end)] spans, end exclusive. *)

val lock_regions :
  Lexer.token array -> int array -> int -> int -> (string option * int * int) list
(** [lock_regions a pm lo hi]: the [Depfast.Mutex] regions among tokens
    [lo, hi), as [(mutex, first, last)] — a [with_lock sched mu (fun
    ...)] body, a [with_lock sched mu @@ fun ...] tail up to [hi - 1],
    and a [lock sched mu] .. [unlock mu] span (unclosed: to [hi - 1]).
    [mutex] is the lock's name when it is written as a plain name. The
    {!Interproc} and {!Domains} share this scanner. *)

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
